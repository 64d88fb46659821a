package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/logic"
	"repro/internal/trace"
)

// Server is the HTTP classification service over a Registry.
//
//	POST /classify   classify example atoms against the active snapshot
//	GET  /snapshots  list loaded snapshot versions
//	POST /activate   swap the serving version (zero dropped requests)
//	GET  /healthz    liveness + active version
//
// Concurrency: a request reads the active artifact pointer once, then
// checks one machine out of that artifact's pool for its whole proof
// workload. The pool bounds concurrent provers (admission control) and the
// single pointer read makes every response internally consistent with
// exactly one snapshot version, even mid-swap.
type Server struct {
	reg *Registry
	mux *http.ServeMux
}

// NewServer builds the service over reg.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /classify", s.handleClassify)
	s.mux.HandleFunc("GET /snapshots", s.handleSnapshots)
	s.mux.HandleFunc("POST /activate", s.handleActivate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ClassifyRequest asks whether the active theory covers each example atom
// (ground facts in logic syntax, e.g. "eastbound(east1)"). Example is a
// convenience for the single-example case; Examples takes precedence when
// both are set. Proof (default true) controls whether covered examples get
// a proof trace.
type ClassifyRequest struct {
	Example  string   `json:"example,omitempty"`
	Examples []string `json:"examples,omitempty"`
	Proof    *bool    `json:"proof,omitempty"`
}

// RuleAnswer is one theory rule's coverage answer for one example.
type RuleAnswer struct {
	Rule    string `json:"rule"`
	Covered bool   `json:"covered"`
}

// ClassifyResult is one example's classification: Covered is the theory
// answer (any rule covers), Rules the per-rule answers in acceptance order,
// and Proof the SLD proof tree behind the first covering rule
// (trace.AppendProofJSON shape, version trace.ProofJSONVersion).
type ClassifyResult struct {
	Example string           `json:"example"`
	Covered bool             `json:"covered"`
	Rules   []RuleAnswer     `json:"rules"`
	Proof   *trace.ProofNode `json:"proof,omitempty"`
}

// ClassifyResponse stamps the results with the snapshot version that
// produced all of them. These types are the wire schema and what clients
// decode into; the handler writes the identical bytes from the artifact's
// response plan without building them.
type ClassifyResponse struct {
	Snapshot    string           `json:"snapshot"`
	Epoch       int              `json:"epoch"`
	Dataset     string           `json:"dataset"`
	Fingerprint string           `json:"fingerprint"`
	Results     []ClassifyResult `json:"results"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	art := s.reg.Active()
	if art == nil {
		httpError(w, http.StatusServiceUnavailable, "no active snapshot")
		return
	}
	var req ClassifyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	raw := req.Examples
	if len(raw) == 0 && req.Example != "" {
		raw = []string{req.Example}
	}
	if len(raw) == 0 {
		httpError(w, http.StatusBadRequest, "no examples given")
		return
	}
	examples := make([]logic.Term, len(raw))
	for i, e := range raw {
		t, err := logic.ParseTerm(e)
		if err != nil {
			httpError(w, http.StatusBadRequest, "example %q: %v", e, err)
			return
		}
		if !t.IsGround() {
			httpError(w, http.StatusBadRequest, "example %q is not ground", e)
			return
		}
		examples[i] = t
	}
	wantProof := req.Proof == nil || *req.Proof

	buf := responsePool.Get().(*responseBuf)
	defer putResponseBuf(buf)
	buf.body = append(buf.body[:0], art.plan.head...)
	m := art.pool.Get()
	defer art.pool.Put(m)
	for i, ex := range examples {
		art.appendResult(buf, i, raw[i], ex, m, wantProof)
	}
	body := append(buf.body, responseTail...)
	buf.body = body

	// Content-Length and a single Write: a body over net/http's 2 kB buffer
	// would otherwise go out chunked, in several writes.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write means the client is gone
}

// SnapshotInfo is one /snapshots row.
type SnapshotInfo struct {
	ID          string `json:"id"`
	Epoch       int    `json:"epoch"`
	Dataset     string `json:"dataset"`
	Fingerprint string `json:"fingerprint"`
	Rules       int    `json:"rules"`
	Machines    int    `json:"machines"`
	Active      bool   `json:"active"`
}

// SnapshotsResponse lists the loaded versions, ascending by sequence.
type SnapshotsResponse struct {
	Active    string         `json:"active,omitempty"`
	Snapshots []SnapshotInfo `json:"snapshots"`
}

func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	resp := SnapshotsResponse{Snapshots: []SnapshotInfo{}}
	act := s.reg.Active()
	if act != nil {
		resp.Active = act.ID
	}
	for _, a := range s.reg.List() {
		resp.Snapshots = append(resp.Snapshots, SnapshotInfo{
			ID:          a.ID,
			Epoch:       a.Snap.Epoch,
			Dataset:     a.Snap.Name,
			Fingerprint: fmt.Sprintf("%016x", a.Snap.Fingerprint),
			Rules:       len(a.Snap.Theory),
			Machines:    a.pool.Size(),
			Active:      act != nil && a.ID == act.ID,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ActivateRequest names the version to swap to.
type ActivateRequest struct {
	Snapshot string `json:"snapshot"`
}

func (s *Server) handleActivate(w http.ResponseWriter, r *http.Request) {
	var req ActivateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	a, err := s.reg.Activate(req.Snapshot)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"active": a.ID})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := map[string]string{"status": "ok"}
	if a := s.reg.Active(); a != nil {
		status["active"] = a.ID
	} else {
		status["active"] = ""
	}
	writeJSON(w, http.StatusOK, status)
}

// maxRequestBody bounds what a handler reads of a request body.
const maxRequestBody = 1 << 20

// decodeBody decodes the JSON request body into v, reading at most
// maxRequestBody of it. On failure it answers 413 or 400 and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, "bad request body: %v", err)
	return false
}

// writeJSON answers the cold endpoints and errors; /classify responses are
// written from the artifact's response plan instead.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
