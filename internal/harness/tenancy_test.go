package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/runners"
	"repro/internal/serve"
	"repro/internal/tenancy"
	"repro/internal/workloads"
)

// TestSingleTenantReducesToOpenLoop pins the tenancy layer's zero-cost
// claim: one class at a fixed rate under the pass-through policy produces
// records bit-for-bit identical to driving the runner's open loop directly,
// for every registered scheme. The tenancy path adds a Merge and an
// AdmitTask indirection; neither may perturb a single timestamp.
func TestSingleTenantReducesToOpenLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	n := 96
	b, _ := workloads.ByName("MB")
	opt := workloads.Options{Tasks: n, Threads: 128, Seed: 1}
	cfg := runners.DefaultConfig()
	cfg.SMMs = 4

	gen := serve.FixedRate{Rate: 64e3}
	cl := []tenancy.Class{{Name: "only", Priority: 0, Weight: 1, Rate: 64e3, Burst: 1,
		SLO: 1e6, Gen: gen}}

	for _, sc := range runners.Schemes() {
		arrivals, classOf := tenancy.Merge(cl, []int{n})
		adm := tenancy.NewAdmission(tenancy.AdmitNone, cl, arrivals, classOf, 0, false)
		_, got := sc.RunOpenLoop(b.Make(opt), runners.OpenLoop{
			Arrivals:  arrivals,
			AdmitTask: adm.AdmitTask,
		}, cfg)

		_, want := sc.RunOpenLoop(b.Make(opt), runners.OpenLoop{Arrivals: gen.Times(n)}, cfg)

		if len(got) != len(want) {
			t.Fatalf("%s: %d records via tenancy, %d direct", sc.Key, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d differs via tenancy: %+v vs %+v", sc.Key, i, got[i], want[i])
			}
		}
		for i, o := range adm.Outcomes() {
			if o != tenancy.Served {
				t.Fatalf("%s: pass-through outcome[%d] = %v, want served", sc.Key, i, o)
			}
		}
	}
}

// TestTenancyConservesTasksInRecords runs the policed admission layer
// through every scheme's real open-loop path and checks the books balance
// end to end: every record is either completed or dropped, a dropped record
// is exactly a shed-or-evicted outcome, and offered = served + shed +
// evicted per class.
func TestTenancyConservesTasksInRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	p := Params{Tasks: 96, SMMs: 4, Seed: 1, Misbehave: 1}.fill()
	n := serveTaskCount(p)
	classes := tenantClasses(p, n, p.sloCycles())
	counts := tenantCounts(n, p.Tenants)
	b, _ := workloads.ByName("XFMR")
	cfg := p.runnerCfg()

	for _, kind := range []string{tenancy.AdmitStrict, tenancy.AdmitWFQ} {
		for _, sc := range runners.Schemes() {
			arrivals, classOf := tenancy.Merge(classes, counts)
			adm := tenancy.NewAdmission(kind, classes, arrivals, classOf, tenantAdmitLimit, true)
			_, recs := sc.RunOpenLoop(b.Make(workloads.Options{Tasks: len(arrivals), Seed: p.Seed}),
				runners.OpenLoop{Arrivals: arrivals, AdmitTask: adm.AdmitTask}, cfg)

			outcomes := adm.Outcomes()
			for i, r := range recs {
				if r.Dropped != (outcomes[i] != tenancy.Served) {
					t.Fatalf("%s/%s: record %d dropped=%v but outcome=%v", kind, sc.Key, i, r.Dropped, outcomes[i])
				}
			}
			st := tenancy.SummarizeClasses(classes, classOf, recs, outcomes)
			for _, cs := range st {
				if cs.Offered != cs.Completed+cs.Shed+cs.Evicted {
					t.Fatalf("%s/%s class %s: offered %d != completed %d + shed %d + evicted %d",
						kind, sc.Key, cs.Class, cs.Offered, cs.Completed, cs.Shed, cs.Evicted)
				}
				if cs.Dropped != cs.Shed+cs.Evicted {
					t.Fatalf("%s/%s class %s: dropped %d != shed %d + evicted %d",
						kind, sc.Key, cs.Class, cs.Dropped, cs.Shed, cs.Evicted)
				}
			}
		}
	}
}

func TestTenantQoSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	p := testParams()
	r := TenantQoS(p)
	wantRows := len(tenancy.Kinds()) * len(runners.Schemes()) * 3
	if len(r.Rows) != wantRows {
		t.Fatalf("tenant_qos rows = %d, want %d", len(r.Rows), wantRows)
	}
	// The perf gate pins this key; losing it must fail loudly here first.
	mustGet(t, r, "strict/premium/pagoda/p99us")

	for _, sc := range runners.Schemes() {
		for _, class := range []string{"premium", "standard", "batch"} {
			// The pass-through baseline polices nothing.
			if v := mustGet(t, r, fmt.Sprintf("none/%s/%s/shed", class, sc.Key)); v != 0 {
				t.Errorf("none/%s/%s shed %v tasks", class, sc.Key, v)
			}
			if v := mustGet(t, r, fmt.Sprintf("none/%s/%s/evict", class, sc.Key)); v != 0 {
				t.Errorf("none/%s/%s evicted %v tasks", class, sc.Key, v)
			}
		}
		// The misbehaving standard class is policed back to its contract
		// under both real policies.
		for _, kind := range []string{tenancy.AdmitStrict, tenancy.AdmitWFQ} {
			if v := mustGet(t, r, fmt.Sprintf("%s/standard/%s/shed", kind, sc.Key)); v == 0 {
				t.Errorf("%s/%s: misbehaving class was never shed", kind, sc.Key)
			}
			// An honest premium tenant is never shed by its own bucket.
			if v := mustGet(t, r, fmt.Sprintf("%s/premium/%s/shed", kind, sc.Key)); v != 0 {
				t.Errorf("%s/%s: honest premium class shed %v tasks", kind, sc.Key, v)
			}
		}
	}
}

func TestOversubSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness sweep")
	}
	r := OversubSweep(testParams())
	if len(r.Rows) != len(oversubFactors) {
		t.Fatalf("oversub_sweep rows = %d, want %d", len(r.Rows), len(oversubFactors))
	}
	for _, factor := range oversubFactors {
		mustGet(t, r, fmt.Sprintf("%.2f/max-rate", factor))
		for _, rate := range oversubRates {
			mustGet(t, r, fmt.Sprintf("%.2f/p99us/%.0f", factor, rate))
		}
	}
	if !strings.Contains(r.Title, "Zorua") {
		t.Errorf("oversub_sweep title does not name the scheme: %q", r.Title)
	}
}
