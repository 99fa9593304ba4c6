package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func TestClusterScalingShape(t *testing.T) {
	p := tinyParams()
	r := ClusterScaling(p)
	wantRows := len(p.gpuSchemes()) * 4 // node counts 1, 2, 4, 8
	if len(r.Rows) != wantRows {
		t.Fatalf("cluster_scaling rows = %d, want %d", len(r.Rows), wantRows)
	}
	if r.Seed != p.Seed {
		t.Errorf("Seed = %d, want %d", r.Seed, p.Seed)
	}
	for _, sc := range p.gpuSchemes() {
		for _, nodes := range []int{1, 2, 4, 8} {
			key := fmt.Sprintf("%s/%d", sc.Key, nodes)
			for _, suffix := range []string{"/max-rate", "/max-rate-node", "/imbalance"} {
				if _, ok := r.Values[key+suffix]; !ok {
					t.Errorf("missing value %s%s", key, suffix)
				}
			}
			if imb := r.Values[key+"/imbalance"]; imb < 1 {
				t.Errorf("%s imbalance %v < 1 (max share cannot undercut the mean)", key, imb)
			}
		}
	}
}

func TestClusterPolicyShape(t *testing.T) {
	p := tinyParams()
	r := ClusterPolicy(p)
	wantRows := 2 * len(cluster.PolicyNames()) * len(p.gpuSchemes())
	if len(r.Rows) != wantRows {
		t.Fatalf("cluster_policy rows = %d, want %d", len(r.Rows), wantRows)
	}
	if r.Seed != p.Seed {
		t.Errorf("Seed = %d, want %d", r.Seed, p.Seed)
	}
	for _, arr := range []string{"poisson", "bursty"} {
		for _, pname := range cluster.PolicyNames() {
			for _, sc := range p.gpuSchemes() {
				key := fmt.Sprintf("%s/%s/%s", sc.Key, pname, arr)
				for _, suffix := range []string{"/p99us", "/goodput", "/drops", "/imbalance"} {
					if _, ok := r.Values[key+suffix]; !ok {
						t.Errorf("missing value %s%s", key, suffix)
					}
				}
			}
		}
	}
	// Round-robin on a uniform stream splits the fleet evenly by construction.
	for _, sc := range p.gpuSchemes() {
		if imb := r.Values[sc.Key+"/rr/poisson/imbalance"]; imb > 1.1 {
			t.Errorf("%s rr imbalance %v, want ~1.0", sc.Key, imb)
		}
	}
}

func TestClusterExperimentsRegistered(t *testing.T) {
	ids := strings.Join(Experiments(), " ")
	for _, want := range []string{"cluster_scaling", "cluster_policy"} {
		if !strings.Contains(ids, want) {
			t.Errorf("Experiments() missing %s", want)
		}
	}
}

func TestMakeMixedTasksInterleaves(t *testing.T) {
	const n = 10
	tasks := makeMixedTasks(n, 1)
	if len(tasks) != n {
		t.Fatalf("got %d tasks, want %d", len(tasks), n)
	}
	// Classes cycle through the bench list; spot-check thread widths exist.
	for i, td := range tasks {
		if td.Threads <= 0 {
			t.Errorf("task %d (class %d) has no threads", i, i%len(clusterClassBenches))
		}
	}
}
