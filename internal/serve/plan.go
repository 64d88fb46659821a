package serve

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/logic"
	"repro/internal/solve"
	"repro/internal/trace"
)

// responsePlan is the part of a /classify response that is constant for the
// life of an artifact, compiled once: the bytes a request would otherwise
// reflect over, escape and indent every time. With it the handler appends
// fragments into one buffer and the result is byte for byte what
// json.Encoder with SetIndent("", "  ") writes for a ClassifyResponse
// (TestClassifyBytesMatchEncodingJSON). A plan is immutable and owned by its
// artifact, so a request that read the active pointer once still names
// exactly one version.
type responsePlan struct {
	// head is the response through `"results": [`.
	head []byte
	// rules[i][0] and rules[i][1] are rule i's complete RuleAnswer object
	// with covered false and true, led by the separator from its predecessor.
	rules [][2][]byte
	// queries[i] is theory rule i compiled for the artifact's KB, shared
	// read-only by every pool machine.
	queries []solve.Query
}

func compilePlan(a *Artifact) responsePlan {
	var p responsePlan
	h := []byte("{\n  \"snapshot\": ")
	h = trace.AppendJSONString(h, a.ID)
	h = append(h, ",\n  \"epoch\": "...)
	h = strconv.AppendInt(h, int64(a.Snap.Epoch), 10)
	h = append(h, ",\n  \"dataset\": "...)
	h = trace.AppendJSONString(h, a.Snap.Name)
	h = append(h, ",\n  \"fingerprint\": "...)
	h = trace.AppendJSONString(h, fmt.Sprintf("%016x", a.Snap.Fingerprint))
	p.head = append(h, ",\n  \"results\": ["...)

	p.rules = make([][2][]byte, len(a.Rules))
	for i, rule := range a.Rules {
		for bit, covered := range [2]string{"false", "true"} {
			var f []byte
			if i > 0 {
				f = append(f, ',')
			}
			f = append(f, "\n        {\n          \"rule\": "...)
			f = trace.AppendJSONString(f, rule)
			f = append(f, ",\n          \"covered\": "...)
			f = append(f, covered...)
			p.rules[i][bit] = append(f, "\n        }"...)
		}
	}
	// Nothing is checked out of the pool yet, so the shard view is free.
	p.queries = a.pool.Machines()[0].CompileQueries(a.Snap.Theory)
	return p
}

// appendResult appends one ClassifyResult object (element i of "results")
// to buf.body: the example as the client wrote it, the theory answer, one
// precompiled fragment per rule selected by its coverage bit, and the proof
// behind the first covering rule when asked for.
func (a *Artifact) appendResult(buf *responseBuf, i int, raw string, ex logic.Term, m *solve.Machine, wantProof bool) {
	theory := a.Snap.Theory
	if len(buf.covered) < len(theory) {
		buf.covered = make([]bool, len(theory))
	}
	// "covered" precedes "rules" in the object, so the bits come first.
	first := -1
	for ri := range theory {
		buf.covered[ri] = m.CoversQuery(&a.plan.queries[ri], ex)
		if buf.covered[ri] && first < 0 {
			first = ri
		}
	}
	dst := buf.body
	if i > 0 {
		dst = append(dst, ',')
	}
	dst = append(dst, "\n    {\n      \"example\": "...)
	dst = trace.AppendJSONString(dst, raw)
	dst = append(dst, ",\n      \"covered\": "...)
	dst = strconv.AppendBool(dst, first >= 0)
	dst = append(dst, ",\n      \"rules\": ["...)
	for ri := range theory {
		bit := 0
		if buf.covered[ri] {
			bit = 1
		}
		dst = append(dst, a.plan.rules[ri][bit]...)
	}
	if len(theory) > 0 {
		dst = append(dst, "\n      "...)
	}
	dst = append(dst, ']')
	if first >= 0 && wantProof {
		// The proof is the exact proof of the rule's coverage answer, kept
		// as a tree, from the query already held: nothing is compiled.
		if proof, ok := m.ProveQuery(&a.plan.queries[first], ex); ok {
			dst = append(dst, ",\n      \"proof\": "...)
			dst = trace.AppendProofJSON(dst, proof, 3) // a result's fields sit at indent 3
		}
	}
	buf.body = append(dst, "\n    }"...)
}

// responseTail closes "results" and the response; json.Encoder ends every
// value with a newline.
const responseTail = "\n  ]\n}\n"

// maxPooledResponse bounds the buffers responsePool keeps: one huge batch
// must not pin its buffer for the life of the process.
const maxPooledResponse = 1 << 20

// responseBuf is the per-request scratch of handleClassify.
type responseBuf struct {
	body    []byte
	covered []bool
}

var responsePool = sync.Pool{New: func() any { return new(responseBuf) }}

func putResponseBuf(b *responseBuf) {
	if cap(b.body) <= maxPooledResponse {
		responsePool.Put(b)
	}
}
