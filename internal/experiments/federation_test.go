package experiments

import (
	"testing"

	"flexric/internal/e2ap"
	"flexric/internal/sm"
)

// TestFederationDemo is the federation subsystem's acceptance demo
// (`make federation-demo`): a root + 3 shards + 12 agents under both
// codecs. One shard is killed mid-run; its agents must re-home to the
// ring successor, the root's cross-shard streams must resume, and a
// federated windowed query over the pre-kill window must return the
// pre-kill baseline — proof the successor restored the dead shard's
// snapshot.
func TestFederationDemo(t *testing.T) {
	schemes := []struct {
		e2 e2ap.Scheme
		sm sm.Scheme
	}{
		{e2ap.SchemeASN, sm.SchemeASN},
		{e2ap.SchemeFB, sm.SchemeFB},
	}
	for _, sc := range schemes {
		t.Run(string(sc.e2), func(t *testing.T) {
			res, err := FederationDemo(FederationOptions{E2Scheme: sc.e2, SMScheme: sc.sm})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failovers != 1 {
				t.Errorf("failovers = %d, want 1", res.Failovers)
			}
			if res.Orphans == 0 {
				t.Error("victim owned no agents; kill proved nothing")
			}
			if res.IndsAfter <= res.IndsBefore {
				t.Errorf("streams did not resume: %d -> %d", res.IndsBefore, res.IndsAfter)
			}
			if res.PostKillCount != res.BaselineCount {
				t.Errorf("window count changed across failover: %d -> %d", res.BaselineCount, res.PostKillCount)
			}
			if res.P95Buckets > 1 {
				t.Errorf("p95 drifted %d buckets", res.P95Buckets)
			}
			t.Log("\n" + res.String())
		})
	}
}
