package search

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
	// NoVM is always false; read only by bench/ until ROADMAP 3(a) deletes
	// it. It once selected the tree-walking interpreter, which is gone:
	// solve.Machine.SetNoVM panics on true.
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
	return s
}

// Score is a rule's heuristic value, P − N: the coverage score the paper's
// April configuration orders its search by ("relies on the number of
// positive and negative examples", §4.2).
func Score(pos, neg int) float64 { return float64(pos - neg) }

// IsGood reports whether a rule with the given coverage meets the acceptance
// criteria (is_good in the paper's Figures 2 and 7): enough positives and
// precision at least MinPrec (relaxed consistency).
func (s Settings) IsGood(pos, neg int) bool {
	if pos < s.MinPos {
		return false
	}
	return float64(pos)/float64(pos+neg) >= s.MinPrec
}
