package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/autoscale"
)

func TestClusterAutoscaleShape(t *testing.T) {
	p := tinyParams()
	r := ClusterAutoscale(p)
	pf := p.fill()
	nPol := len(autoscale.PolicyNames())
	nSch := len(pf.gpuSchemes())
	wantRows := 2*nPol*2*nSch + nPol*nSch // sweep (arrivals x tunings) + trace section
	if len(r.Rows) != wantRows {
		t.Fatalf("cluster_autoscale rows = %d, want %d", len(r.Rows), wantRows)
	}
	if r.Seed != p.Seed {
		t.Errorf("Seed = %d, want %d", r.Seed, p.Seed)
	}
	suffixes := []string{"/p99us", "/goodput", "/drops", "/nodesec", "/nodesec-mtask",
		"/scale-outs", "/scale-ins", "/peak"}
	for _, arr := range []string{"diurnal", "flash"} {
		for _, pol := range autoscale.PolicyNames() {
			for _, tun := range []string{"gentle", "aggressive"} {
				for _, sc := range pf.gpuSchemes() {
					key := fmt.Sprintf("%s/%s/%s/%s", arr, pol, tun, sc.Key)
					for _, suffix := range suffixes {
						if _, ok := r.Values[key+suffix]; !ok {
							t.Errorf("missing value %s%s", key, suffix)
						}
					}
					if peak := r.Values[key+"/peak"]; peak < float64(pf.MinNodes) || peak > float64(pf.MaxNodes) {
						t.Errorf("%s peak %v outside bounds %d..%d", key, peak, pf.MinNodes, pf.MaxNodes)
					}
				}
			}
		}
	}
	for _, pol := range autoscale.PolicyNames() {
		for _, sc := range pf.gpuSchemes() {
			key := fmt.Sprintf("trace/%s/%s", pol, sc.Key)
			for _, suffix := range suffixes {
				if _, ok := r.Values[key+suffix]; !ok {
					t.Errorf("missing value %s%s", key, suffix)
				}
			}
			if peak := r.Values[key+"/peak"]; peak < asTraceMin || peak > asTraceMax {
				t.Errorf("%s peak %v outside trace bounds %d..%d", key, peak, asTraceMin, asTraceMax)
			}
			if ns := r.Values[key+"/nodesec-mtask"]; ns <= 0 {
				t.Errorf("%s node-seconds per Mtask %v, want > 0", key, ns)
			}
		}
	}
}

// TestClusterAutoscalePolicyFilter: -autoscale restricts the scaling-policy
// axis the way -schemes restricts the scheme axis.
func TestClusterAutoscalePolicyFilter(t *testing.T) {
	p := tinyParams()
	p.Autoscale = "predictive"
	p.Schemes = []string{"hyperq"}
	r := ClusterAutoscale(p)
	wantRows := 2*1*2*1 + 1 // one policy, one scheme
	if len(r.Rows) != wantRows {
		t.Fatalf("filtered rows = %d, want %d", len(r.Rows), wantRows)
	}
	for _, row := range r.Rows {
		if row[1] != "predictive" {
			t.Errorf("row scaler %q leaked past -autoscale predictive", row[1])
		}
	}
	if _, ok := r.Values["trace/reactive/hyperq/nodesec-mtask"]; ok {
		t.Error("reactive values present despite -autoscale predictive")
	}
}

func TestClusterAutoscaleRegistered(t *testing.T) {
	ids := strings.Join(Experiments(), " ")
	if !strings.Contains(ids, "cluster_autoscale") {
		t.Error("Experiments() missing cluster_autoscale")
	}
	if _, err := Run("cluster_autoscale", Params{Tasks: 48, SMMs: 4, Seed: 1, Schemes: []string{"gemtc"}, Autoscale: "reactive"}); err != nil {
		t.Fatalf("Run(cluster_autoscale): %v", err)
	}
}
