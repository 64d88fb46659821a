package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/logic"
)

// BenchmarkClassifyHandler times one /classify request through the handler
// on an in-memory recorder — no sockets, no net/http server — against the
// theory the repository's serve-classify benchmark serves: p²-mdie, p=4
// W=10, on all of full-size carcinogenesis (59 clauses). One request per
// training example, cycled.
func BenchmarkClassifyHandler(b *testing.B) {
	ds := datasets.CarcinogenesisSized(162, 136, 1)
	met, err := core.Learn(ds.KB, ds.Pos, ds.Neg, ds.Modes, core.Config{
		Workers: 4, Width: 10, Seed: 8,
		Search: ds.Search, Bottom: ds.Bottom, Budget: ds.Budget,
		Cost: cluster.DefaultCostModel,
	})
	if err != nil {
		b.Fatal(err)
	}
	fp := core.Fingerprint(ds.KB, ds.Pos, ds.Neg)
	reg := NewRegistry(1)
	art := reg.Add(NewSnapshot(ds.Name, fp, met.Epochs, met.Theory, ds.KB, ds.Budget, ds.Pos, ds.Neg), 1)
	if _, err := reg.Activate(art.ID); err != nil {
		b.Fatal(err)
	}
	h := NewServer(reg)

	for _, proof := range []bool{true, false} {
		name := "proof=on"
		if !proof {
			name = "proof=off"
		}
		var bodies [][]byte
		for _, e := range append(append([]logic.Term(nil), ds.Pos...), ds.Neg...) {
			body, err := json.Marshal(ClassifyRequest{Example: e.String(), Proof: &proof})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sent int64
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(bodies[i%len(bodies)]))
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				sent += int64(rec.Body.Len())
			}
			b.ReportMetric(float64(len(art.Rules)), "rules")
			b.ReportMetric(float64(sent)/float64(b.N), "resp-B/op")
		})
	}
}
