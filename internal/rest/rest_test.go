package rest

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flexric/internal/telemetry"
)

// TestReadJSON: the body reader answers 415, 413 and 400 in that order,
// and fills v only from exactly one JSON value with known fields.
func TestReadJSON(t *testing.T) {
	type target struct {
		SliceID uint32 `json:"sliceId"`
	}
	type policy struct {
		ID      string   `json:"id"`
		Agent   int      `json:"agent"`
		Targets []target `json:"targets"`
	}
	huge := `{"id":"` + strings.Repeat("x", MaxBody) + `"}`
	for _, c := range []struct {
		name, ctype, body string
		code              int
	}{
		{"ok", "application/json", `{"id":"p","agent":2,"targets":[{"sliceId":1}]}`, 0},
		{"charset", "application/json; charset=utf-8", `{"id":"p","agent":2,"targets":[{"sliceId":1}]}`, 0},
		{"trailing white space", "application/json", "{\"id\":\"p\",\"agent\":2,\"targets\":[{\"sliceId\":1}]} \n", 0},
		{"text/plain", "text/plain", `{"id":"p"}`, http.StatusUnsupportedMediaType},
		{"no content type", "", `{"id":"p"}`, http.StatusUnsupportedMediaType},
		{"bad content type", "application/", `{"id":"p"}`, http.StatusUnsupportedMediaType},
		{"oversized before content type", "text/plain", huge, http.StatusUnsupportedMediaType},
		{"oversized", "application/json", huge, http.StatusRequestEntityTooLarge},
		{"oversized with an unknown field", "application/json", `{"pad":"` + strings.Repeat("x", MaxBody) + `"}`, http.StatusRequestEntityTooLarge},
		{"oversized after a value", "application/json", `{"id":"p"}` + strings.Repeat(" ", MaxBody), http.StatusRequestEntityTooLarge},
		{"empty", "application/json", "", http.StatusBadRequest},
		{"truncated", "application/json", `{"id":"p","agent":`, http.StatusBadRequest},
		{"unknown field", "application/json", `{"id":"p","agent":0,"bogusField":true}`, http.StatusBadRequest},
		{"unknown nested field", "application/json", `{"id":"p","targets":[{"sliceId":1,"maxLatency":5}]}`, http.StatusBadRequest},
		{"trailing data", "application/json", `{"id":"p"} trailing`, http.StatusBadRequest},
		{"second value", "application/json", `{"id":"p"}{"id":"q"}`, http.StatusBadRequest},
		{"trailing brace", "application/json", `{"id":"p"}}`, http.StatusBadRequest},
		{"wrong type", "application/json", `{"agent":"two"}`, http.StatusBadRequest},
	} {
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(c.body))
		if c.ctype != "" {
			r.Header.Set("Content-Type", c.ctype)
		}
		var p policy
		code, err := ReadJSON(httptest.NewRecorder(), r, &p)
		if code != c.code || (err == nil) != (c.code == 0) {
			t.Errorf("%s: ReadJSON = %d, %v; want %d", c.name, code, err, c.code)
			continue
		}
		if c.code == 0 && (p.ID != "p" || p.Agent != 2 || len(p.Targets) != 1 || p.Targets[0].SliceID != 1) {
			t.Errorf("%s: decoded %+v", c.name, p)
		}
	}
}

// TestHandleCountsAndRoutesMethods: a route counts its requests, a GET
// route answers HEAD, and a wrong method gets the mux's 405 without
// reaching the handler.
func TestHandleCountsAndRoutesMethods(t *testing.T) {
	calls := 0
	mux := http.NewServeMux()
	Handle(mux, "rest_test.http", []Route{
		{Pattern: "GET /thing", Label: "thing", Handler: func(w http.ResponseWriter, _ *http.Request) {
			calls++
			WriteJSON(w, http.StatusOK, map[string]int{"n": calls})
		}},
	})
	for _, c := range []struct {
		method string
		code   int
		allow  string
	}{
		{http.MethodGet, http.StatusOK, ""},
		{http.MethodHead, http.StatusOK, ""},
		{http.MethodPost, http.StatusMethodNotAllowed, "GET, HEAD"},
		{http.MethodDelete, http.StatusMethodNotAllowed, "GET, HEAD"},
	} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(c.method, "/thing", nil))
		if w.Code != c.code || w.Header().Get("Allow") != c.allow {
			t.Errorf("%s /thing: %d Allow=%q, want %d Allow=%q", c.method, w.Code, w.Header().Get("Allow"), c.code, c.allow)
		}
	}
	if calls != 2 {
		t.Fatalf("handler ran %d times, want 2 (GET and HEAD)", calls)
	}
	reqs := telemetry.NewCounter("rest_test.http.requests.thing").Load()
	lat := telemetry.NewHistogram("rest_test.http.latency.thing").Count()
	if reqs != 2 || lat != 2 {
		t.Fatalf("counted %d requests and %d latencies, want 2 each", reqs, lat)
	}
}

// TestWriteJSONEncodeError: a value JSON cannot carry answers 500 with
// the encoder's error, not the asked status with a truncated body; an
// encodable one answers the asked status.
func TestWriteJSONEncodeError(t *testing.T) {
	w := httptest.NewRecorder()
	WriteJSON(w, http.StatusOK, map[string]float64{"v": math.Inf(1)})
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "unsupported value") {
		t.Fatalf("+Inf: %d %q, want 500 naming the unsupported value", w.Code, w.Body)
	}
	w = httptest.NewRecorder()
	WriteJSON(w, http.StatusCreated, map[string]int{"n": 1})
	if w.Code != http.StatusCreated || w.Body.String() != "{\"n\":1}\n" || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("encodable value: %d %q %q", w.Code, w.Body, w.Header().Get("Content-Type"))
	}
}
