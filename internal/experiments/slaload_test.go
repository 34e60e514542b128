package experiments

import (
	"encoding/json"
	"net/http"
	"testing"

	"flexric/internal/a1"
	"flexric/internal/e2ap"
	"flexric/internal/obs"
	"flexric/internal/sm"
)

// TestSLADemo is the A1 policy plane's acceptance demo (`make
// sla-demo`): under both codecs, an SLA policy installed over the A1
// northbound is enforced by the closed loop — a load surge on the
// neighbouring slice breaks the target (VIOLATED), the loop shifts NVS
// capacity toward the SLA slice until the target holds again
// (ENFORCED), slice churn and a scripted reconnect storm do not unseat
// the verdict, and every transition is visible on the control-room a1
// stream channel and at /a1/status.
func TestSLADemo(t *testing.T) {
	schemes := []struct {
		e2 e2ap.Scheme
		sm sm.Scheme
	}{
		{e2ap.SchemeASN, sm.SchemeASN},
		{e2ap.SchemeFB, sm.SchemeFB},
	}
	for _, sc := range schemes {
		t.Run(string(sc.e2), func(t *testing.T) {
			res, err := SLALoad(SLALoadOptions{E2Scheme: sc.e2, SMScheme: sc.sm})
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalStatus != "ENFORCED" {
				t.Errorf("final status = %s, want ENFORCED", res.FinalStatus)
			}
			if res.BaselineMbps <= res.TargetMbps {
				t.Errorf("baseline %.1f Mbps not above the %.1f target (no borrowing?)",
					res.BaselineMbps, res.TargetMbps)
			}
			if res.SurgeMbps >= res.TargetMbps {
				t.Errorf("surge %.1f Mbps did not break the %.1f target", res.SurgeMbps, res.TargetMbps)
			}
			if res.RemediedMbps <= res.TargetMbps {
				t.Errorf("remedied %.1f Mbps still below the %.1f target", res.RemediedMbps, res.TargetMbps)
			}
			if res.Remedies == 0 {
				t.Error("no weight remedies fired")
			}
			if res.Share1 <= res.Share0 {
				t.Errorf("slice-1 share not raised: %.2f -> %.2f", res.Share0, res.Share1)
			}
			if res.Transitions < 3 {
				t.Errorf("transitions = %d, want >= 3 (ENFORCED, VIOLATED, ENFORCED)", res.Transitions)
			}
			if res.Drops != 3 || res.Reconnects < 3 {
				t.Errorf("reconnect storm: drops=%d reconnects=%d, want 3 / >=3", res.Drops, res.Reconnects)
			}
			// One subscription per (agent, function): the slicing
			// controller reads the monitor's MAC reports instead of
			// subscribing to MAC again.
			if res.Subscriptions != 2 {
				t.Errorf("subscriptions = %d, want 2 (MAC, SC)", res.Subscriptions)
			}
			if res.StreamEvents == 0 || !res.SawViolated || !res.SawEnforced {
				t.Errorf("a1 stream channel: events=%d violated=%v enforced=%v",
					res.StreamEvents, res.SawViolated, res.SawEnforced)
			}
			t.Log("\n" + res.String())
		})
	}
}

// TestSLAStatusSummaryJSON pins the /a1/status JSON contract the demo
// (and an operator's curl) relies on.
func TestSLAStatusSummaryJSON(t *testing.T) {
	store := a1.NewStore()
	if _, err := store.Create(a1.Policy{
		ID: "demo", TypeID: a1.TypeSliceSLA, Agent: 0, WindowMS: 400,
		Targets: []a1.SliceTarget{{SliceID: 1, MinThroughputMbps: 45}},
	}); err != nil {
		t.Fatal(err)
	}
	store.SetStatus("demo", a1.StatusEnforced, "all targets met")
	o, err := obs.NewServer("127.0.0.1:0", obs.WithA1(store))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	resp, err := http.Get("http://" + o.Addr() + "/a1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum struct {
		Policies   int `json:"policies"`
		Enforced   int `json:"enforced"`
		Violated   int `json:"violated"`
		NotApplied int `json:"not_applied"`
		States     []struct {
			Status string `json:"status"`
		} `json:"states"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Policies != 1 || sum.Enforced != 1 || len(sum.States) != 1 || sum.States[0].Status != "ENFORCED" {
		t.Fatalf("summary %+v", sum)
	}
}
