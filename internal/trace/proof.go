package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/solve"
)

// Proof rendering: the serving layer returns the SLD proof behind a positive
// classification as its explanation artifact. solve.ProofStep is the
// in-memory tree; this file fixes its two external encodings — an indented
// plain-text form for humans and a stable JSON form for machines. The JSON
// shape (field names, kind strings, child ordering) is a wire contract
// pinned by a golden test: /classify clients parse it.

// ProofJSONVersion identifies the proof JSON shape. Bump only with a
// corresponding golden update and changelog note.
const ProofJSONVersion = 1

// ProofNode is the JSON schema of one proof step — what clients decode
// into; the encoder is AppendProofJSON. Goal and Clause are canonical logic
// syntax (the same strings the parser accepts); Kind is one of "fact",
// "rule", "builtin", "naf". Children appear in clause-body order.
type ProofNode struct {
	Goal     string      `json:"goal"`
	Neg      bool        `json:"neg,omitempty"`
	Kind     string      `json:"kind"`
	Clause   string      `json:"clause,omitempty"`
	Children []ProofNode `json:"children,omitempty"`
}

// NewProofNode converts a proof tree into its JSON form.
func NewProofNode(p *solve.ProofStep) ProofNode {
	n := ProofNode{Goal: p.Goal.String(), Neg: p.Neg, Kind: p.Kind.String()}
	if p.Clause != nil {
		n.Clause = p.Clause.String()
	}
	for _, c := range p.Children {
		n.Children = append(n.Children, NewProofNode(c))
	}
	return n
}

// AppendProofJSON appends the stable JSON encoding of p — byte for byte what
// json.MarshalIndent(NewProofNode(p), "", "  ") produces — for an object
// whose closing brace sits at indent level depth, so a caller can embed the
// proof in a larger indented document. It walks the ProofStep tree directly:
// goals and clauses are rendered into dst with no intermediate string.
func AppendProofJSON(dst []byte, p *solve.ProofStep, depth int) []byte {
	dst = append(dst, '{')
	dst = appendNewline(dst, depth+1)
	dst = append(dst, `"goal": "`...)
	from := len(dst)
	dst = escapeJSONTail(p.Goal.AppendTo(dst), from)
	dst = append(dst, `",`...)
	dst = appendNewline(dst, depth+1)
	if p.Neg {
		dst = append(dst, `"neg": true,`...)
		dst = appendNewline(dst, depth+1)
	}
	dst = append(dst, `"kind": "`...)
	dst = append(dst, p.Kind.String()...)
	dst = append(dst, '"')
	if p.Clause != nil {
		dst = append(dst, ',')
		dst = appendNewline(dst, depth+1)
		dst = append(dst, `"clause": "`...)
		from := len(dst)
		dst = escapeJSONTail(p.Clause.AppendTo(dst), from)
		dst = append(dst, '"')
	}
	if len(p.Children) > 0 {
		dst = append(dst, ',')
		dst = appendNewline(dst, depth+1)
		dst = append(dst, `"children": [`...)
		for i, c := range p.Children {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendNewline(dst, depth+2)
			dst = AppendProofJSON(dst, c, depth+2)
		}
		dst = appendNewline(dst, depth+1)
		dst = append(dst, ']')
	}
	dst = appendNewline(dst, depth)
	return append(dst, '}')
}

// appendNewline starts a new line at indent level depth (two spaces each).
func appendNewline(dst []byte, depth int) []byte {
	const spaces = "                                "
	dst = append(dst, '\n')
	for n := 2 * depth; n > 0; n -= len(spaces) {
		dst = append(dst, spaces[:min(n, len(spaces))]...)
	}
	return dst
}

// ProofText renders the indented plain-text form: one line per node,
// `\+`-prefixed for negation-as-failure, with the discharging clause after
// the goal for rule nodes.
func ProofText(p *solve.ProofStep) string {
	var sb strings.Builder
	renderProofNode(&sb, p, 0)
	return sb.String()
}

func renderProofNode(w io.Writer, p *solve.ProofStep, depth int) {
	for range depth {
		io.WriteString(w, "  ")
	}
	switch p.Kind {
	case solve.ProofNAF:
		fmt.Fprintf(w, "\\+ %s  [naf]\n", p.Goal)
	case solve.ProofRule:
		fmt.Fprintf(w, "%s  [rule %s]\n", p.Goal, p.Clause)
	case solve.ProofBuiltin:
		fmt.Fprintf(w, "%s  [builtin]\n", p.Goal)
	default:
		fmt.Fprintf(w, "%s  [fact]\n", p.Goal)
	}
	for _, c := range p.Children {
		renderProofNode(w, c, depth+1)
	}
}
