package a1

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"mime"
	"net/http"
	"strings"
	"time"

	"flexric/internal/telemetry"
)

// HTTP northbound of the policy store, mounted under /a1/ on the obs
// server (obs.WithA1):
//
//	GET    /a1/policies       → []State, sorted by ID
//	POST   /a1/policies       → create (201 + stored State)
//	GET    /a1/policies/{id}  → one State
//	PUT    /a1/policies/{id}  → update (200 + stored State)
//	DELETE /a1/policies/{id}  → 204
//	GET    /a1/status         → StatusSummary
//	GET    /a1/types          → registered policy-type schemas
//
// Bodies must be application/json (415 otherwise) and at most
// maxPolicyBytes (413 otherwise); wrong methods get 405 with an Allow
// header; validation failures get 400 with every schema violation
// listed. Each route counts a1.http.requests.<route>
// and observes a1.http.latency.<route>, mirroring the obs mux.

// Handler serves the /a1/* routes over a store.
type Handler struct {
	store *Store
}

// NewHandler returns the /a1/* handler for a store.
func NewHandler(st *Store) *Handler { return &Handler{store: st} }

var httpTel = struct {
	policies, policy, status, types *routeTel
}{
	policies: newRouteTel("a1_policies"),
	policy:   newRouteTel("a1_policy"),
	status:   newRouteTel("a1_status"),
	types:    newRouteTel("a1_types"),
}

type routeTel struct {
	reqs *telemetry.Counter
	lat  *telemetry.Histogram
}

func newRouteTel(label string) *routeTel {
	return &routeTel{
		reqs: telemetry.NewCounter("a1.http.requests." + label),
		lat:  telemetry.NewHistogram("a1.http.latency." + label),
	}
}

func (t *routeTel) observe(start time.Time) {
	t.reqs.Inc()
	t.lat.Observe(time.Since(start))
}

// ServeHTTP dispatches /a1/* requests.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	switch {
	case r.URL.Path == "/a1/policies":
		defer httpTel.policies.observe(start)
		h.handlePolicies(w, r)
	case strings.HasPrefix(r.URL.Path, "/a1/policies/"):
		defer httpTel.policy.observe(start)
		h.handlePolicy(w, r, strings.TrimPrefix(r.URL.Path, "/a1/policies/"))
	case r.URL.Path == "/a1/status":
		defer httpTel.status.observe(start)
		h.handleStatus(w, r)
	case r.URL.Path == "/a1/types":
		defer httpTel.types.observe(start)
		h.handleTypes(w, r)
	default:
		http.NotFound(w, r)
	}
}

// requireJSON enforces an application/json request body; it writes the
// 415 and returns false otherwise.
func requireJSON(w http.ResponseWriter, r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || mt != "application/json" {
		http.Error(w, "unsupported content type (want application/json)",
			http.StatusUnsupportedMediaType)
		return false
	}
	return true
}

// maxPolicyBytes bounds a policy request body.
const maxPolicyBytes = 64 << 10

// readPolicy decodes the request body as a policy. When the body is over
// maxPolicyBytes (413) or not a policy (400) it writes the error and
// returns nil.
func readPolicy(w http.ResponseWriter, r *http.Request) *Policy {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPolicyBytes))
	var p *Policy
	if err == nil {
		p, err = DecodePolicy(bytes.NewReader(body))
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return nil
	}
	return p
}

func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the JSON error envelope for 4xx responses with detail.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func (h *Handler) handlePolicies(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, h.store.List())
	case http.MethodPost:
		if !requireJSON(w, r) {
			return
		}
		p := readPolicy(w, r)
		if p == nil {
			return
		}
		st, err := h.store.Create(*p)
		switch {
		case errors.Is(err, ErrExists):
			writeError(w, http.StatusConflict, err)
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusCreated, st)
		}
	default:
		methodNotAllowed(w, "GET, POST")
	}
}

func (h *Handler) handlePolicy(w http.ResponseWriter, r *http.Request, id string) {
	switch r.Method {
	case http.MethodGet:
		st, ok := h.store.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, ErrNotFound)
			return
		}
		writeJSON(w, http.StatusOK, st)
	case http.MethodPut:
		if !requireJSON(w, r) {
			return
		}
		p := readPolicy(w, r)
		if p == nil {
			return
		}
		if p.ID != "" && p.ID != id {
			writeError(w, http.StatusBadRequest,
				errors.New("policy id in body does not match URL"))
			return
		}
		st, err := h.store.Update(id, *p)
		switch {
		case errors.Is(err, ErrNotFound):
			writeError(w, http.StatusNotFound, err)
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusOK, st)
		}
	case http.MethodDelete:
		if _, ok := h.store.Delete(id); !ok {
			writeError(w, http.StatusNotFound, ErrNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		methodNotAllowed(w, "GET, PUT, DELETE")
	}
}

func (h *Handler) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, h.store.Summary())
}

func (h *Handler) handleTypes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, http.StatusOK, Types())
}
