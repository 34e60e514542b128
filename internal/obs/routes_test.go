package obs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"strings"
	"testing"

	"flexric/internal/a1"
	"flexric/internal/rest"
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
// other method.
func hostileInputs(pattern string) []routeInput {
	method, p, _ := strings.Cut(pattern, " ")
	p = strings.NewReplacer("{id}", "p1", "{$}", "").Replace(p)
	const base = "agent=0&fn=mac&ue=1&field=cqi&last=3"
	var in []routeInput
	add := func(m, q, ctype, body string) {
		in = append(in, routeInput{m, p, q, ctype, []byte(body)})
	}
	for _, param := range []string{"agent", "ue", "last", "window_ms", "step_ms", "from", "to", "limit"} {
		for _, v := range []string{"", "-1", "NaN", "1e309", "99999999999999999999",
			"9223372036854775807", "-9223372036854775808", "0", "all"} {
			q, _ := url.ParseQuery(base)
			q.Set(param, v)
			add(method, q.Encode(), "application/json", "{}")
		}
	}
	for _, q := range []string{
		"",
		"agent=all&fn=mac&ue=all&field=cqi&last=3",
		"agent=all&fn=mac&ue=all&field=cqi&window_ms=1000",
		"agent=all&fn=mac&ue=all&field=cqi&from=-9223372036854775808&to=9223372036854775807&step_ms=1",
		"agent=0&fn=mac&ue=1&field=cqi&window_ms=9223372036854&step_ms=1",
		"agent=0&fn=65536&ue=1&field=bogus&window_ms=1000",
	} {
		add(method, q, "application/json", "{}")
	}
	oversized := `{"pad":"` + strings.Repeat("x", rest.MaxBody-9) + `"}` // one byte over
	for _, body := range []string{"", "{}", `{"id":`, `{"bogus":1}`, `{} trailing`, `{}{}`, oversized,
		`{"id":"p1","typeId":"slice_sla_v1","agent":0,"windowMs":200,"targets":[{"sliceId":1,"minThroughputMbps":40}]}`,
		`{"algo":"nvs","slices":[{"id":1,"kind":"capacity","capacity":0.5}]}`,
		`{"rnti":1,"sliceId":1}`,
		`{"op":"addQueue","rnti":1}`,
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
// fails the caller on its own. The pprof routes are left out: they are
// the standard library's, and /debug/pprof/profile blocks for as many
// seconds as it is asked.
func serveInput(t *testing.T, h http.Handler, in routeInput) {
	if strings.HasPrefix(path.Clean("/"+in.path), "/debug/pprof") {
		return
	}
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

// sweepServer builds the obs server the route sweep and FuzzObsRoutes
// walk, with a tsdb store holding samples, the A1 northbound and the
// stream, and returns its handler and the inputs for every route it
// registers.
func sweepServer(tb testing.TB) (http.Handler, []routeInput) {
	st, _ := partialStore(2, 2)
	opts := []Option{WithTSDB(st), WithA1(a1.NewStore()), WithStream(20)}
	s, err := NewServer("127.0.0.1:0", opts...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var in []routeInput
	for _, rt := range append(s.routes(&o), a1.Routes(o.a1Store)...) {
		in = append(in, hostileInputs(rt.Pattern)...)
	}
	return s.http.Handler, in
}

// TestRouteSweep walks hostile requests over every registered route:
// none may panic or answer 500.
func TestRouteSweep(t *testing.T) {
	h, inputs := sweepServer(t)
	for _, in := range inputs {
		serveInput(t, h, in)
	}
}

// FuzzObsRoutes varies method, path, query, content type and body over
// the sweep's server under the sweep's oracle. It is seeded with every
// so many of the sweep's inputs: the fuzzer replays each seed before it
// mutates, and the verify step gives it 3 s.
func FuzzObsRoutes(f *testing.F) {
	h, inputs := sweepServer(f)
	for i := 0; i < len(inputs); i += len(inputs)/fuzzSeeds + 1 {
		in := inputs[i]
		f.Add(in.method, in.path, in.query, in.ctype, in.body)
	}
	f.Fuzz(func(t *testing.T, method, p, query, ctype string, body []byte) {
		serveInput(t, h, routeInput{method, p, query, ctype, body})
	})
}

// TestHeadOnGetRoutes: a GET route answers HEAD with its status and
// headers and no body.
func TestHeadOnGetRoutes(t *testing.T) {
	st, _ := partialStore(1, 1)
	s := newStreamServer(t, st, WithA1(a1.NewStore()))
	for _, p := range []string{"/", "/metrics", "/snapshot.json", "/traces", "/tsdb/series", "/tsdb/stats", "/a1/policies", "/a1/status"} {
		req, _ := http.NewRequest(http.MethodHead, "http://"+s.Addr()+p, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(b) != 0 || resp.Header.Get("Content-Type") == "" {
			t.Errorf("HEAD %s: %s, %d body bytes, Content-Type %q", p, resp.Status, len(b), resp.Header.Get("Content-Type"))
		}
	}
}
