// Package xval implements stratified k-fold cross-validation, the paper's
// evaluation protocol (§5.2: 5-fold CV, values averaged over the folds).
package xval

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Fold is one train/test split.
type Fold struct {
	TrainPos, TrainNeg []logic.Term
	TestPos, TestNeg   []logic.Term
}

// KFold produces k stratified folds: positives and negatives are shuffled
// independently with the seed and dealt round-robin, so every fold's class
// balance matches the full set to within one example.
func KFold(pos, neg []logic.Term, k int, seed int64) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("xval: k must be ≥ 2, got %d", k)
	}
	if len(pos) < k {
		return nil, fmt.Errorf("xval: %d positives cannot fill %d folds", len(pos), k)
	}
	posFold := sched.DealEven(rng.Shuffled(rng.New(seed), pos), k)
	negFold := sched.DealEven(rng.Shuffled(rng.New(seed+1), neg), k)
	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		fold := &folds[f]
		fold.TestPos = posFold[f]
		fold.TestNeg = negFold[f]
		for g := 0; g < k; g++ {
			if g == f {
				continue
			}
			fold.TrainPos = append(fold.TrainPos, posFold[g]...)
			fold.TrainNeg = append(fold.TrainNeg, negFold[g]...)
		}
	}
	return folds, nil
}
