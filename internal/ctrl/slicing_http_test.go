package ctrl_test

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"flexric/internal/a1"
	"flexric/internal/ctrl"
	"flexric/internal/sm"
)

func newA1StoreWithPolicy(t *testing.T) *a1.Store {
	t.Helper()
	store := a1.NewStore()
	if _, err := store.Create(a1.Policy{
		ID: "sla-1", TypeID: a1.TypeSliceSLA, Agent: 0, WindowMS: 500,
		Targets: []a1.SliceTarget{{SliceID: 1, MinThroughputMbps: 10}},
	}); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestSlicingRESTMethodAndContentEnforcement: the slicing northbound
// must reject wrong methods with 405 + Allow (matching the obs mux's
// enforcement) and non-JSON POST bodies with 415, and must propagate
// control-plane failures as 502.
func TestSlicingRESTMethodAndContentEnforcement(t *testing.T) {
	s, _ := startSrv(t)
	sc, err := ctrl.NewSlicingController(s, sm.SchemeFB, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	base := "http://" + sc.Addr()

	do := func(method, url, contentType, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// 405 with Allow on both mutating routes.
	resp := do(http.MethodDelete, base+"/slices?agent=0", "", "")
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD, POST" {
		t.Fatalf("DELETE /slices: %s allow=%q", resp.Status, resp.Header.Get("Allow"))
	}
	resp = do(http.MethodGet, base+"/assoc?agent=0", "", "")
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("GET /assoc: %s allow=%q", resp.Status, resp.Header.Get("Allow"))
	}
	// The read-only routes answer GET and HEAD only.
	for _, c := range []struct{ method, path string }{
		{http.MethodDelete, "/agents"},
		{http.MethodPost, "/stats?agent=0"},
		{http.MethodPut, "/stats/agg?agent=0&ue=1&field=cqi"},
	} {
		resp = do(c.method, base+c.path, "application/json", "{}")
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
			t.Fatalf("%s %s: %s allow=%q", c.method, c.path, resp.Status, resp.Header.Get("Allow"))
		}
	}
	// HEAD on a GET route answers like GET, without a body.
	resp = do(http.MethodHead, base+"/agents", "", "")
	if b, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK || len(b) != 0 {
		t.Fatalf("HEAD /agents: %s with %d body bytes", resp.Status, len(b))
	}

	// 415 for non-JSON and missing content types.
	resp = do(http.MethodPost, base+"/slices?agent=0", "text/plain", `{"algo":"nvs"}`)
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain POST /slices: %s", resp.Status)
	}
	resp = do(http.MethodPost, base+"/assoc?agent=0", "", `{"rnti":1,"sliceId":2}`)
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("untyped POST /assoc: %s", resp.Status)
	}

	// A charset parameter is still JSON.
	resp = do(http.MethodPost, base+"/slices?agent=0", "application/json; charset=utf-8", `{"algo":"bogus"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("charset POST /slices: %s", resp.Status)
	}

	// apply failure propagation: no agent 0 is connected, so a valid
	// body reaches apply and the control-plane error surfaces as 502.
	resp = postJSON(t, base+"/slices?agent=0", ctrl.SliceConfigJSON{
		Algo:   "nvs",
		Slices: []ctrl.SliceParamJSON{{ID: 1, Kind: "capacity", Capacity: 0.5}},
	})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("POST /slices without agent: %s", resp.Status)
	}
	resp.Body.Close()
	resp = postJSON(t, base+"/assoc?agent=0", ctrl.AssocJSON{RNTI: 1, SliceID: 1})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("POST /assoc without agent: %s", resp.Status)
	}
	resp.Body.Close()
}

// TestTopologyWithA1 verifies the snapshot reflects the policy plane:
// count, per-policy verdicts, and target slice IDs.
func TestTopologyWithA1(t *testing.T) {
	s, _ := startSrv(t)
	store := newA1StoreWithPolicy(t)
	topo := ctrl.NewTopology(s, ctrl.TopoWithA1(store))
	snap := topo.Snapshot()
	if snap.A1Policies != 1 || len(snap.SLA) != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	sla := snap.SLA[0]
	if sla.Policy != "sla-1" || sla.Status != "NOT_APPLIED" || len(sla.Slices) != 1 || sla.Slices[0] != 1 {
		t.Fatalf("sla %+v", sla)
	}
}
