package runners

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/workloads"
)

// clusterBackend is one scheme's fleet runner under its key.
type clusterBackend struct {
	key     string
	cluster func([]workloads.TaskDef, ClusterOpenLoop, Config) (Result, ClusterRun)
}

// clusterBackends derives the gate list from the scheme registry, so a newly
// registered scheme is covered by every fleet gate automatically.
func clusterBackends() []clusterBackend {
	var out []clusterBackend
	for _, s := range Schemes() {
		out = append(out, clusterBackend{s.Key, s.RunCluster})
	}
	return out
}

func clusterTestTasks(t *testing.T, n int) []workloads.TaskDef {
	t.Helper()
	b, err := workloads.ByName("MB")
	if err != nil {
		t.Fatalf("MB workload missing: %v", err)
	}
	return b.Make(workloads.Options{Tasks: n, Threads: 128, Seed: 1})
}

func clusterTestConfig() Config {
	cfg := DefaultConfig()
	cfg.SMMs = 4
	return cfg
}

// openLoopGolden holds the FNV-64a digest of (records, Result) that each
// scheme's standalone single-device open-loop runner produced for
// TestClusterOneNodeMatchesOpenLoop's inputs, recorded before those runners
// were folded into the one-node fleet. Keys are "<scheme>/<admission>". The
// hyperq/wfq and zorua/wfq digests were re-pinned when wfq admission lost
// its finish-time contest, the only cells in which that contest refused.
var openLoopGolden = map[string]uint64{
	"hyperq/unbounded": 0xd2a9399d3bdfae59,
	"hyperq/queue8":    0xbe93040dbf3d2bbd,
	"hyperq/token":     0xf49ef27e81083551,
	"hyperq/wfq":       0xa2157e4db620b4fc,
	"gemtc/unbounded":  0x11410d8defe8c0ec,
	"gemtc/queue8":     0xe0082f2ce9c4a718,
	"gemtc/token":      0x176be06ec9cf5f07,
	"gemtc/wfq":        0xde0ba19d4d13836e,
	"pagoda/unbounded": 0x2505b88d1244d546,
	"pagoda/queue8":    0x3b469bb880023821,
	"pagoda/token":     0x0cfc6617b90bbecc,
	"pagoda/wfq":       0xe3895eb1103e7464,
	"zorua/unbounded":  0x835f40c0439877a0,
	"zorua/queue8":     0xbe93040dbf3d2bbd,
	"zorua/token":      0xf49ef27e81083551,
	"zorua/wfq":        0xa2157e4db620b4fc,
}

// digestOpenLoop hashes every record field and every Result field, so any
// shifted timestamp, flipped drop or changed aggregate changes the digest.
func digestOpenLoop(res Result, recs []serve.Record) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, r := range recs {
		put(r.Submit)
		put(r.Start)
		put(r.Done)
		if r.Dropped {
			put(1)
		} else {
			put(0)
		}
	}
	for _, v := range []float64{res.Elapsed, res.AvgLatency, res.MaxLatency, res.P50Latency,
		res.P90Latency, res.P99Latency, res.Occupancy, res.IssueUtil, float64(res.Tasks)} {
		put(v)
	}
	return h.Sum64()
}

// TestClusterOneNodeMatchesOpenLoop pins the single-device open loop — a
// one-node round-robin fleet — to the golden digests of the standalone
// open-loop runners it replaced: every scheme under every admission shape
// serve_latency and tenant_qos sweep (unbounded, bounded queue, token
// bucket, fleet-wide WFQ tenancy through AdmitTask) must reproduce those
// runners' records and Result bit for bit.
func TestClusterOneNodeMatchesOpenLoop(t *testing.T) {
	const n = 96
	const rate = 256e3
	tasks := clusterTestTasks(t, n)
	// Shared-memory-bound tasks make the device's threadblock admission
	// matter, so zorua's virtualized node cannot pass for HyperQ's.
	for i := range tasks {
		tasks[i].SharedMem = 24 * 1024
	}
	cfg := clusterTestConfig()
	arrivals := serve.Poisson{Rate: rate, Seed: 1}.Times(n)

	// Three tenant classes, the standard one offering ten times its contract.
	counts := []int{n / 3, n / 3, n / 3}
	horizon := sim.Time(float64(counts[0]) / (rate / 3) * 1e9)
	classes := tenancy.DefaultClasses(3, rate/3, 200_000, horizon, 1, 1)
	tenantArrivals, classOf := tenancy.Merge(classes, counts)

	openLoop := func(mk func() OpenLoop) func(Scheme) (Result, []serve.Record) {
		return func(s Scheme) (Result, []serve.Record) { return s.RunOpenLoop(tasks, mk(), cfg) }
	}
	admissions := []struct {
		name string
		run  func(Scheme) (Result, []serve.Record)
	}{
		{"unbounded", openLoop(func() OpenLoop { return OpenLoop{Arrivals: arrivals} })},
		{"queue8", openLoop(func() OpenLoop {
			return OpenLoop{Arrivals: arrivals, Admit: serve.BoundedQueue{Limit: 8}.Admit}
		})},
		{"token", openLoop(func() OpenLoop {
			return OpenLoop{Arrivals: arrivals, Admit: serve.NewTokenBucket(rate/2, 4).Admit}
		})},
		{"wfq", func(s Scheme) (Result, []serve.Record) {
			adm := tenancy.NewAdmission(tenancy.AdmitWFQ, classes, tenantArrivals, classOf, 8, true)
			res, cr := s.RunCluster(tasks, ClusterOpenLoop{Arrivals: tenantArrivals, Nodes: 1, AdmitTask: adm.AdmitTask}, cfg)
			return res, cr.Recs
		}},
	}

	for _, s := range Schemes() {
		for _, ad := range admissions {
			key := s.Key + "/" + ad.name
			t.Run(key, func(t *testing.T) {
				res, recs := ad.run(s)
				if len(recs) != n {
					t.Fatalf("%d records for %d tasks", len(recs), n)
				}
				if dropped := n - res.Tasks; (dropped == 0) != (ad.name == "unbounded") {
					t.Errorf("%d of %d tasks dropped under %s admission", dropped, n, ad.name)
				}
				got := digestOpenLoop(res, recs)
				want, ok := openLoopGolden[key]
				if !ok {
					t.Fatalf("no golden digest; got %#x", got)
				}
				if got != want {
					t.Errorf("digest %#x, want %#x (result %+v)", got, want, res)
				}
			})
		}
	}
}

// TestClusterConservationEveryPolicyBackend asserts the fleet-wide
// conservation invariant — submitted = done + dropped, per node and in total —
// for every routing policy crossed with every backend, under drop-inducing
// admission and bursty arrivals.
func TestClusterConservationEveryPolicyBackend(t *testing.T) {
	const n = 64
	const nodesN = 4
	tasks := clusterTestTasks(t, n)
	cfg := clusterTestConfig()
	arrivals := serve.Bursty{PeakRate: 1e6, Burst: 8, Gap: 50_000}.Times(n)
	classes := make([]int, n)
	for i := range classes {
		classes[i] = i % 5
	}

	for _, be := range clusterBackends() {
		for _, pname := range cluster.PolicyNames() {
			t.Run(be.key+"/"+pname, func(t *testing.T) {
				mk, err := cluster.NewPolicy(pname, 7)
				if err != nil {
					t.Fatal(err)
				}
				co := ClusterOpenLoop{
					Arrivals: arrivals,
					Classes:  classes,
					Nodes:    nodesN,
					Policy:   mk(),
					Admit:    func() func(sim.Time, int) bool { return serve.BoundedQueue{Limit: 4}.Admit },
				}
				_, cr := be.cluster(tasks, co, cfg)

				if err := cr.CheckConservation(); err != nil {
					t.Fatalf("conservation: %v", err)
				}
				for i, v := range cr.Views {
					if !v.Conserved() {
						t.Errorf("node %d not conserved: %+v", i, v)
					}
				}
				routed := make([]int, nodesN)
				for ti, nd := range cr.NodeOf {
					if nd < 0 || nd >= nodesN {
						t.Fatalf("task %d routed out of range: %d", ti, nd)
					}
					routed[nd]++
				}
				for i, v := range cr.Views {
					if routed[i] != v.Routed {
						t.Errorf("node %d: NodeOf says %d tasks, view says %d", i, routed[i], v.Routed)
					}
				}
				dropped := 0
				for _, r := range cr.Recs {
					if r.Dropped {
						dropped++
					}
				}
				if dropped == 0 {
					t.Error("queue4 admission under bursts produced no drops; conservation not exercised")
				}
			})
		}
	}
}

// TestClusterDeterministicRepeat runs the same seeded fleet twice and demands
// bit-identical records, routing, and per-node accounting — the fleet is one
// engine, one clock, zero host-order dependence.
func TestClusterDeterministicRepeat(t *testing.T) {
	const n = 64
	tasks := clusterTestTasks(t, n)
	cfg := clusterTestConfig()
	arrivals := serve.Poisson{Rate: 256e3, Seed: 5}.Times(n)

	for _, be := range clusterBackends() {
		t.Run(be.key, func(t *testing.T) {
			run := func() (Result, ClusterRun) {
				co := ClusterOpenLoop{Arrivals: arrivals, Nodes: 3, Policy: cluster.NewPowerOfTwo(9)}
				return be.cluster(tasks, co, cfg)
			}
			res1, cr1 := run()
			res2, cr2 := run()
			if res1 != res2 {
				t.Errorf("results diverged across identical runs:\n %+v\n %+v", res1, res2)
			}
			if !reflect.DeepEqual(cr1.Recs, cr2.Recs) {
				t.Error("records diverged across identical runs")
			}
			if !reflect.DeepEqual(cr1.NodeOf, cr2.NodeOf) {
				t.Error("routing diverged across identical runs")
			}
			if !reflect.DeepEqual(cr1.Views, cr2.Views) {
				t.Error("node views diverged across identical runs")
			}
		})
	}
}

// TestClusterSpreadsLoadAndCompletes checks the fleet actually behaves like a
// fleet: with round-robin over 4 nodes every node serves a share, everything
// completes under unbounded admission, and NodeRecords partitions the record
// set.
func TestClusterSpreadsLoadAndCompletes(t *testing.T) {
	const n = 64
	const nodesN = 4
	tasks := clusterTestTasks(t, n)
	cfg := clusterTestConfig()
	arrivals := serve.Poisson{Rate: 128e3, Seed: 2}.Times(n)

	for _, be := range clusterBackends() {
		t.Run(be.key, func(t *testing.T) {
			co := ClusterOpenLoop{Arrivals: arrivals, Nodes: nodesN, Policy: cluster.NewRoundRobin()}
			res, cr := be.cluster(tasks, co, cfg)

			if res.Tasks != n {
				t.Errorf("completed %d tasks, want %d", res.Tasks, n)
			}
			total := 0
			for i, v := range cr.Views {
				if v.Routed != n/nodesN {
					t.Errorf("node %d routed %d tasks, want %d", i, v.Routed, n/nodesN)
				}
				if v.Done != v.Routed {
					t.Errorf("node %d done %d of %d routed (unbounded admission)", i, v.Done, v.Routed)
				}
				total += v.Routed
			}
			if total != n {
				t.Errorf("nodes routed %d tasks, want %d", total, n)
			}
			for ti, r := range cr.Recs {
				if r.Dropped {
					t.Errorf("task %d dropped under unbounded admission", ti)
				}
				if !(r.Submit <= r.Start && r.Start <= r.Done) {
					t.Errorf("task %d out of order: %+v", ti, r)
				}
			}
		})
	}
}
