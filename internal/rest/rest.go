// Package rest holds the rules every northbound HTTP route shares: the
// per-route request counter and latency histogram, the JSON request
// body reader and the JSON response writer. Method routing is the
// standard library's: each route is a Go 1.22 ServeMux pattern such as
// "GET /metrics" or "POST /slices", so a wrong method gets 405 with an
// Allow header from the mux, and a GET route also answers HEAD.
package rest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sync"
	"time"

	"flexric/internal/telemetry"
)

// Route is one northbound route.
type Route struct {
	// Pattern is the ServeMux pattern, method included.
	Pattern string
	// Label names the route's telemetry rows; routes that share a path
	// share a label.
	Label   string
	Handler http.HandlerFunc
}

// Handle registers routes on mux. Each request to a route counts
// <ns>.requests.<label> and observes <ns>.latency.<label>.
func Handle(mux *http.ServeMux, ns string, routes []Route) {
	for _, rt := range routes {
		reqs := telemetry.NewCounter(ns + ".requests." + rt.Label)
		lat := telemetry.NewHistogram(ns + ".latency." + rt.Label)
		h := rt.Handler
		mux.HandleFunc(rt.Pattern, func(w http.ResponseWriter, r *http.Request) {
			reqs.Inc()
			t0 := time.Now()
			h(w, r)
			lat.Observe(time.Since(t0))
		})
	}
}

// MaxBody bounds a northbound request body.
const MaxBody = 64 << 10

// ReadJSON decodes the body of r into v. On failure it returns the
// status to answer with, checked in this order: 415 unless the content
// type is application/json (any parameters), 413 for a body longer than
// MaxBody, and 400 for malformed JSON, an unknown field or trailing
// data. The caller writes the error in its own error format.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || mt != "application/json" {
		return http.StatusUnsupportedMediaType, errors.New("unsupported content type: want application/json")
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBody))
	dec.DisallowUnknownFields()
	err = dec.Decode(v)
	if err == nil {
		// One value only: past it lies nothing but white space.
		if _, err = dec.Token(); err == io.EOF {
			return 0, nil
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err)
}

// bodies holds the buffers WriteJSON encodes into.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest buffer WriteJSON returns to its pool; a
// larger one, from a rare wide answer, is left to the collector.
const maxPooledBody = 1 << 20

// WriteJSON answers code with v as a JSON body. It encodes v before it
// writes the status, so a value that does not encode (a non-finite
// float, say) answers 500 with the encoder's error instead of code with
// a truncated body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := bodies.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodies.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}
