package search

import "fmt"

// Heuristic selects the rule-scoring function used to order the search.
type Heuristic uint8

const (
	// HeurCoverage scores P − N, the heuristic the paper's April
	// configuration uses ("relies on the number of positive and negative
	// examples", §4.2).
	HeurCoverage Heuristic = iota
	// HeurCompression scores P − N − L (L = body length): Progol-style
	// compression.
	HeurCompression
	// HeurPrecision scores the Laplace-corrected precision (P+1)/(P+N+2).
	HeurPrecision
	// HeurMEstimate scores the m-estimate of precision with M and the
	// positive prior.
	HeurMEstimate
)

func (h Heuristic) String() string {
	switch h {
	case HeurCoverage:
		return "coverage"
	case HeurCompression:
		return "compression"
	case HeurPrecision:
		return "precision"
	case HeurMEstimate:
		return "mestimate"
	}
	return fmt.Sprintf("heuristic(%d)", h)
}

// ParseHeuristic maps a name to a Heuristic.
func ParseHeuristic(name string) (Heuristic, error) {
	switch name {
	case "", "coverage":
		return HeurCoverage, nil
	case "compression":
		return HeurCompression, nil
	case "precision":
		return HeurPrecision, nil
	case "mestimate":
		return HeurMEstimate, nil
	}
	return 0, fmt.Errorf("search: unknown heuristic %q", name)
}

// Strategy selects the search-space traversal order.
type Strategy uint8

const (
	// StrategyBFS explores the refinement lattice breadth-first — the
	// configuration the paper's April runs use (§4.2, "top-down
	// breadth-first search").
	StrategyBFS Strategy = iota
	// StrategyBestFirst expands the highest-scoring open rule first
	// (greedy best-first), an extension useful under tight node limits.
	StrategyBestFirst
)

func (s Strategy) String() string {
	switch s {
	case StrategyBFS:
		return "bfs"
	case StrategyBestFirst:
		return "bestfirst"
	}
	return fmt.Sprintf("strategy(%d)", s)
}

// ParseStrategy maps a name to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "bfs":
		return StrategyBFS, nil
	case "bestfirst", "best-first":
		return StrategyBestFirst, nil
	}
	return 0, fmt.Errorf("search: unknown strategy %q", name)
}

// Settings parameterises a rule search. The zero value is usable: defaults
// are applied by WithDefaults.
type Settings struct {
	// MaxClauseLen caps body literals per rule. ≤0 means 4.
	MaxClauseLen int
	// NodesLimit caps generated rules per search — the paper's §5.2
	// "threshold on the number of rules that can be generated on each
	// search". ≤0 means 2000.
	NodesLimit int
	// MinPos is the minimum positive cover for an acceptable rule. ≤0 means 1.
	MinPos int
	// MinPrec is the minimum training precision P/(P+N) for an acceptable
	// rule — the relaxed consistency (noise) condition. ≤0 means 0.7.
	MinPrec float64
	// W is the pipeline width: how many good rules a search emits.
	// ≤0 means unlimited ("nolimit" in the paper's tables).
	W int
	// Heuristic orders the search.
	Heuristic Heuristic
	// Strategy selects the traversal order (default: breadth-first).
	Strategy Strategy
	// MEstimateM is the m parameter for HeurMEstimate. ≤0 means 2.
	MEstimateM float64
	// PosPrior is the positive class prior for HeurMEstimate; set by the
	// caller from the dataset. ≤0 means 0.5.
	PosPrior float64
	// NoVM pins clause resolution to the tree-walking interpreter instead of
	// the compiled bytecode VM (see internal/solve). The two engines are
	// bit-identical in solution order, inference counts and budget cutoffs;
	// only speed differs. Kept for A/B benchmarking and as the differential
	// reference path.
	NoVM bool
}

// WithDefaults returns s with zero fields replaced by defaults.
func (s Settings) WithDefaults() Settings {
	if s.MaxClauseLen <= 0 {
		s.MaxClauseLen = 4
	}
	if s.NodesLimit <= 0 {
		s.NodesLimit = 2000
	}
	if s.MinPos <= 0 {
		s.MinPos = 1
	}
	if s.MinPrec <= 0 {
		s.MinPrec = 0.7
	}
	if s.MEstimateM <= 0 {
		s.MEstimateM = 2
	}
	if s.PosPrior <= 0 {
		s.PosPrior = 0.5
	}
	return s
}

// Score computes the heuristic value of a rule with pos/neg coverage and
// body length length.
func (s Settings) Score(pos, neg, length int) float64 {
	switch s.Heuristic {
	case HeurCompression:
		return float64(pos-neg) - float64(length)
	case HeurPrecision:
		return float64(pos+1) / float64(pos+neg+2)
	case HeurMEstimate:
		return (float64(pos) + s.MEstimateM*s.PosPrior) / (float64(pos+neg) + s.MEstimateM)
	default:
		return float64(pos - neg)
	}
}

// IsGood reports whether a rule with the given coverage meets the acceptance
// criteria (is_good in the paper's Figures 2 and 7): enough positives and
// precision at least MinPrec (relaxed consistency).
func (s Settings) IsGood(pos, neg int) bool {
	if pos < s.MinPos {
		return false
	}
	return float64(pos)/float64(pos+neg) >= s.MinPrec
}
