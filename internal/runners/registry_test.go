package runners

import (
	"testing"

	"repro/internal/serve"
	"repro/internal/workloads"
)

// TestSchemeRegistryComplete pins the registry's shape: the expected keys in
// canonical order, unique, each with display name, closed-loop runner and
// fleet node constructor.
// Growing the registry without filling the full surface fails here, and every
// cross-scheme gate (olRunners, clusterBackends, TestDoubleRunResultsIdentical,
// TestVerificationMatrix) iterates Schemes() directly, so a registered scheme
// cannot be missing from any gate.
func TestSchemeRegistryComplete(t *testing.T) {
	want := []string{"hyperq", "gemtc", "pagoda", "zorua"}
	ss := Schemes()
	if len(ss) != len(want) {
		t.Fatalf("registry has %d schemes, want %d: %v", len(ss), len(want), SchemeKeys())
	}
	seen := map[string]bool{}
	for i, s := range ss {
		if s.Key != want[i] {
			t.Errorf("scheme %d key = %q, want %q", i, s.Key, want[i])
		}
		if seen[s.Key] {
			t.Errorf("duplicate scheme key %q", s.Key)
		}
		seen[s.Key] = true
		if s.Display == "" {
			t.Errorf("scheme %q has no display name", s.Key)
		}
		if s.Run == nil || s.newNode == nil {
			t.Errorf("scheme %q is missing an entry point (closed %v, node %v)",
				s.Key, s.Run != nil, s.newNode != nil)
		}
	}
	if got, ok := SchemeByKey("pagoda"); !ok || got.Display != "Pagoda" {
		t.Errorf("SchemeByKey(pagoda) = %+v, %v", got, ok)
	}
	if _, ok := SchemeByKey("bogus"); ok {
		t.Error("SchemeByKey(bogus) resolved")
	}
}

// TestGateListsCoverEveryScheme asserts the cross-scheme gate helpers expose
// exactly the registered schemes, in order — the belt-and-suspenders form of
// the derivation the helpers do themselves.
func TestGateListsCoverEveryScheme(t *testing.T) {
	keys := SchemeKeys()
	ol := olRunners()
	cb := clusterBackends()
	if len(ol) != len(keys) || len(cb) != len(keys) {
		t.Fatalf("gate lists cover %d/%d schemes, registry has %d", len(ol), len(cb), len(keys))
	}
	for i, key := range keys {
		if ol[i].name != key {
			t.Errorf("olRunners[%d] = %q, want %q", i, ol[i].name, key)
		}
		if cb[i].key != key {
			t.Errorf("clusterBackends[%d] = %q, want %q", i, cb[i].key, key)
		}
	}
}

// TestZoruaAtUnityMatchesHyperQ pins the reduction property end to end: with
// an explicit oversubscription factor of 1 the zorua scheme is bit-for-bit
// the HyperQ baseline — same host path, same (physical) admission.
func TestZoruaAtUnityMatchesHyperQ(t *testing.T) {
	b, err := workloads.ByName("MB")
	if err != nil {
		t.Fatal(err)
	}
	tasks := b.Make(workloads.Options{Tasks: 48, Threads: 128, Seed: 1})
	cfg := DefaultConfig()
	cfg.SMMs = 4

	unity := cfg
	unity.Oversub = 1
	if rz, rh := RunZorua(tasks, unity), RunHyperQ(tasks, cfg); rz != rh {
		t.Errorf("closed loop diverged at unity:\n zorua  %+v\n hyperq %+v", rz, rh)
	}

	arr := serve.Poisson{Rate: 128e3, Seed: 2}.Times(len(tasks))
	zorua, _ := SchemeByKey("zorua")
	hyperq, _ := SchemeByKey("hyperq")
	rz, zrecs := zorua.RunOpenLoop(tasks, OpenLoop{Arrivals: arr}, unity)
	rh, hrecs := hyperq.RunOpenLoop(tasks, OpenLoop{Arrivals: arr}, cfg)
	if rz != rh {
		t.Errorf("open loop diverged at unity:\n zorua  %+v\n hyperq %+v", rz, rh)
	}
	for i := range zrecs {
		if zrecs[i] != hrecs[i] {
			t.Fatalf("open-loop record %d diverged: %+v vs %+v", i, zrecs[i], hrecs[i])
		}
	}
}

// TestZoruaOversubChangesOutcome is the converse guard: at the scheme's
// default oversubscription a shared-memory-heavy workload must not produce
// the HyperQ result bit-for-bit — the virtualized device really admits
// differently.
func TestZoruaOversubChangesOutcome(t *testing.T) {
	b, err := workloads.ByName("MB")
	if err != nil {
		t.Fatal(err)
	}
	tasks := b.Make(workloads.Options{Tasks: 64, Threads: 64, Seed: 1})
	// Make the tasks shared-memory-bound on a small device (4 TBs per SMM
	// physically): oversubscription then has real headroom to admit past
	// physical capacity.
	for i := range tasks {
		tasks[i].SharedMem = 24 * 1024
	}
	cfg := DefaultConfig()
	cfg.SMMs = 2
	rz := RunZorua(tasks, cfg)
	rh := RunHyperQ(tasks, cfg)
	if rz == rh {
		t.Errorf("default-oversub zorua == hyperq on a shared-heavy workload: %+v", rz)
	}
	if rz.Tasks != len(tasks) || rh.Tasks != len(tasks) {
		t.Errorf("incomplete runs: zorua %d, hyperq %d of %d", rz.Tasks, rh.Tasks, len(tasks))
	}
}
