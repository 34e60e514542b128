package ctrl_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"flexric/internal/broker"
	"flexric/internal/ctrl"
	"flexric/internal/rest"
	"flexric/internal/server"
	"flexric/internal/sm"
)

// fuzzSeeds bounds how many sweep inputs seed the route fuzzer.
const fuzzSeeds = 200

// routeInput is one request of the hostile route sweep.
type routeInput struct {
	method, path, query, ctype string
	body                       []byte
}

// hostileInputs lists the sweep's requests to the route registered
// under pattern: every numeric query parameter at hostile values,
// wildcard and overflowing selectors, malformed, unknown-field,
// trailing and oversized bodies under each content type, and every
// other method, as in the obs route sweep.
func hostileInputs(pattern string) []routeInput {
	method, p, _ := strings.Cut(pattern, " ")
	const base = "agent=0&fn=mac&ue=1&field=cqi&last=3"
	var in []routeInput
	add := func(m, q, ctype, body string) {
		in = append(in, routeInput{m, p, q, ctype, []byte(body)})
	}
	for _, param := range []string{"agent", "ue", "last", "window_ms", "step_ms", "from", "to"} {
		for _, v := range []string{"", "-1", "NaN", "1e309", "99999999999999999999",
			"9223372036854775807", "-9223372036854775808", "0", "all"} {
			q, _ := url.ParseQuery(base)
			q.Set(param, v)
			add(method, q.Encode(), "application/json", "{}")
		}
	}
	for _, q := range []string{
		"",
		"agent=all&fn=mac&ue=all&field=cqi&window_ms=1000",
		"agent=0&ue=1&field=cqi&window_ms=9223372036855",
		"agent=0&ue=65536&field=bogus&window_ms=1000",
	} {
		add(method, q, "application/json", "{}")
	}
	oversized := `{"pad":"` + strings.Repeat("x", rest.MaxBody-9) + `"}` // one byte over
	for _, body := range []string{"", "{}", `{"algo":`, `{"bogus":1}`, `{} trailing`, `{}{}`, oversized,
		`{"algo":"nvs","slices":[{"id":1,"kind":"capacity","capacity":0.5}]}`,
		`{"algo":"nvs","slices":[{"id":1,"kind":"capacity","capacity":1e309}]}`,
		`{"rnti":1,"sliceId":1}`,
		`{"rnti":70000,"sliceId":-1}`,
		`{"op":"addQueue","rnti":1}`,
		`{"op":"setPacer","rnti":1,"pacer":"bdp","pacerTargetMs":4294967296}`,
	} {
		for _, ctype := range []string{"application/json", "text/plain", ""} {
			add(method, base, ctype, body)
		}
	}
	for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
		if m != method {
			add(m, base, "application/json", "{}")
		}
	}
	return in
}

// serveInput runs one request through h and fails on a 500; a panic
// fails the caller on its own.
func serveInput(t *testing.T, h http.Handler, in routeInput) {
	r := httptest.NewRequest(http.MethodGet, "/", bytes.NewReader(in.body))
	r.Method = in.method
	r.URL = &url.URL{Path: in.path, RawQuery: in.query}
	r.Header.Set("Content-Type", in.ctype)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code == http.StatusInternalServerError {
		t.Errorf("%s %s?%s (%q, %d B): 500 %s", in.method, in.path, in.query, in.ctype, len(in.body), w.Body)
	}
}

// sweepHandlers builds the slicing and TC controllers over a server
// with no agent, and returns their handlers with the inputs for every
// route each registers.
func sweepHandlers(tb testing.TB) (slicing, tc http.Handler, slicingIn, tcIn []routeInput) {
	brk, brkAddr, err := broker.NewServer("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { brk.Close() })
	s := server.New(server.Config{})
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	mon := ctrl.NewMonitor(s, ctrl.MonitorConfig{Scheme: sm.SchemeFB, Layers: ctrl.MonMAC | ctrl.MonRLC, Decode: true})
	sc, err := ctrl.NewSlicingController(s, sm.SchemeFB, "127.0.0.1:0", ctrl.WithMonitor(mon))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sc.Close() })
	tcc, err := ctrl.NewTCController(mon, brkAddr, "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tcc.Close() })
	routes, slicing := ctrl.SlicingRoutes(sc)
	for _, rt := range routes {
		slicingIn = append(slicingIn, hostileInputs(rt.Pattern)...)
	}
	routes, tc = ctrl.TCRoutes(tcc)
	for _, rt := range routes {
		tcIn = append(tcIn, hostileInputs(rt.Pattern)...)
	}
	return slicing, tc, slicingIn, tcIn
}

// TestRouteSweep walks hostile requests over every route of the
// slicing and TC northbounds: none may panic or answer 500.
func TestRouteSweep(t *testing.T) {
	slicing, tc, slicingIn, tcIn := sweepHandlers(t)
	for _, in := range slicingIn {
		serveInput(t, slicing, in)
	}
	for _, in := range tcIn {
		serveInput(t, tc, in)
	}
}

// FuzzCtrlRoutes varies method, path, query, content type and body over
// both northbounds under the sweep's oracle. It is seeded with every so
// many of the sweep's inputs: the fuzzer replays each seed before it
// mutates, and the verify step gives it 3 s.
func FuzzCtrlRoutes(f *testing.F) {
	slicing, tc, slicingIn, tcIn := sweepHandlers(f)
	inputs := append(slicingIn, tcIn...)
	for i := 0; i < len(inputs); i += len(inputs)/fuzzSeeds + 1 {
		in := inputs[i]
		f.Add(in.method, in.path, in.query, in.ctype, in.body)
	}
	f.Fuzz(func(t *testing.T, method, p, query, ctype string, body []byte) {
		in := routeInput{method, p, query, ctype, body}
		serveInput(t, slicing, in)
		serveInput(t, tc, in)
	})
}

// TestAgentParamBounded: an agent ID outside uint32 is the client's
// error on every route that takes one (400), where a bare Atoi let it
// reach the control plane and fail there (502). The largest ID still
// reaches it.
func TestAgentParamBounded(t *testing.T) {
	slicing, tc, _, _ := sweepHandlers(t)
	for _, c := range []struct {
		h            http.Handler
		method, path string
		body         string
	}{
		{slicing, http.MethodPost, "/slices", `{"algo":"nvs","slices":[{"id":1,"kind":"capacity","capacity":0.5}]}`},
		{slicing, http.MethodPost, "/assoc", `{"rnti":1,"sliceId":1}`},
		{tc, http.MethodPost, "/tc", `{"op":"addQueue","rnti":1}`},
		{slicing, http.MethodGet, "/slices", ""},
		{slicing, http.MethodGet, "/stats", ""},
	} {
		serve := func(agent string) *httptest.ResponseRecorder {
			r := httptest.NewRequest(c.method, c.path+"?agent="+agent, strings.NewReader(c.body))
			r.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			c.h.ServeHTTP(w, r)
			return w
		}
		for _, agent := range []string{"-1", "%2B1", "4294967296", "9223372036854775807"} {
			w := serve(agent)
			if w.Code != http.StatusBadRequest || strings.TrimSpace(w.Body.String()) != "bad agent parameter" {
				t.Errorf("%s %s?agent=%s: %d %q", c.method, c.path, agent, w.Code, w.Body)
			}
		}
		if c.method == http.MethodPost {
			if w := serve("4294967295"); w.Code != http.StatusBadGateway {
				t.Errorf("%s %s?agent=4294967295: %d %q", c.method, c.path, w.Code, w.Body)
			}
		}
	}
}
