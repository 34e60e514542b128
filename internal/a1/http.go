package a1

import (
	"errors"
	"net/http"

	"flexric/internal/rest"
)

// Routes is the HTTP northbound of the policy store, mounted on the
// obs server (obs.WithA1):
//
//	GET    /a1/policies       → []State, sorted by ID
//	POST   /a1/policies       → create (201 + stored State)
//	GET    /a1/policies/{id}  → one State
//	PUT    /a1/policies/{id}  → update (200 + stored State)
//	DELETE /a1/policies/{id}  → 204
//	GET    /a1/status         → StatusSummary
//	GET    /a1/types          → registered policy-type schemas
//
// Bodies follow rest.ReadJSON: application/json (415 otherwise), at
// most rest.MaxBody (413 otherwise), one policy object with no unknown
// field (400 otherwise); validation failures get 400 with every schema
// violation listed. Errors are JSON: {"error": "..."}. Registered with
// rest.Handle under "a1.http", each route counts
// a1.http.requests.<label> and observes a1.http.latency.<label>.
func Routes(st *Store) []rest.Route {
	h := handler{store: st}
	return []rest.Route{
		{Pattern: "GET /a1/policies", Label: "a1_policies", Handler: h.list},
		{Pattern: "POST /a1/policies", Label: "a1_policies", Handler: h.create},
		{Pattern: "GET /a1/policies/{id}", Label: "a1_policy", Handler: h.get},
		{Pattern: "PUT /a1/policies/{id}", Label: "a1_policy", Handler: h.update},
		{Pattern: "DELETE /a1/policies/{id}", Label: "a1_policy", Handler: h.delete},
		{Pattern: "GET /a1/status", Label: "a1_status", Handler: h.status},
		{Pattern: "GET /a1/types", Label: "a1_types", Handler: h.types},
	}
}

type handler struct {
	store *Store
}

// readPolicy decodes the request body as a policy. When it cannot, it
// writes the error and returns nil.
func readPolicy(w http.ResponseWriter, r *http.Request) *Policy {
	var p Policy
	if code, err := rest.ReadJSON(w, r, &p); err != nil {
		writeError(w, code, err)
		return nil
	}
	return &p
}

// errorBody is the JSON error envelope for 4xx responses with detail.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	rest.WriteJSON(w, code, errorBody{Error: err.Error()})
}

func (h handler) list(w http.ResponseWriter, _ *http.Request) {
	rest.WriteJSON(w, http.StatusOK, h.store.List())
}

func (h handler) create(w http.ResponseWriter, r *http.Request) {
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
		rest.WriteJSON(w, http.StatusCreated, st)
	}
}

func (h handler) get(w http.ResponseWriter, r *http.Request) {
	st, ok := h.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	rest.WriteJSON(w, http.StatusOK, st)
}

func (h handler) update(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
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
		rest.WriteJSON(w, http.StatusOK, st)
	}
}

func (h handler) delete(w http.ResponseWriter, r *http.Request) {
	if _, ok := h.store.Delete(r.PathValue("id")); !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h handler) status(w http.ResponseWriter, _ *http.Request) {
	rest.WriteJSON(w, http.StatusOK, h.store.Summary())
}

func (h handler) types(w http.ResponseWriter, _ *http.Request) {
	rest.WriteJSON(w, http.StatusOK, Types())
}
