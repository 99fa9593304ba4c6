package hostcpu

import "testing"

// narrowTasks builds a paper-like narrow task stream: thousands of tasks of
// tens of microseconds each.
func narrowTasks(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(40_000 + (i%7)*9_000) // 15-35 us at 2.6 GHz
	}
	return out
}

func TestPThreadsWinsTheCPUBakeOff(t *testing.T) {
	// §6.2: "PThreads obtained the best results" — the property the paper
	// used to select its CPU baseline.
	results := CompareCPUSchemes(Xeon20(), narrowTasks(2000))
	if len(results) != 4 {
		t.Fatalf("got %d schemes, want 4", len(results))
	}
	var pthreads, best SchemeResult
	best.Elapsed = -1
	for _, r := range results {
		if r.Elapsed <= 0 {
			t.Fatalf("%s produced no time", r.Scheme)
		}
		if r.Scheme == "PThreads" {
			pthreads = r
		}
		if best.Elapsed < 0 || r.Elapsed < best.Elapsed {
			best = r
		}
	}
	if best.Scheme != "PThreads" {
		t.Fatalf("best CPU scheme = %s (%v); paper says PThreads (%v)",
			best.Scheme, best.Elapsed, pthreads.Elapsed)
	}
}

func TestPythonPoolSerializedByGIL(t *testing.T) {
	// The GIL model must make the Python pool far slower than PThreads.
	results := CompareCPUSchemes(Xeon20(), narrowTasks(500))
	byName := map[string]SchemeResult{}
	for _, r := range results {
		byName[r.Scheme] = r
	}
	if byName["Python-pool"].Elapsed < byName["PThreads"].Elapsed*5 {
		t.Fatalf("Python pool (%v) should be many times slower than PThreads (%v)",
			byName["Python-pool"].Elapsed, byName["PThreads"].Elapsed)
	}
}

func TestOSSchedDispatchBound(t *testing.T) {
	// With tiny tasks, OS-level dispatch dominates and loses to the pool.
	tiny := make([]float64, 1000)
	for i := range tiny {
		tiny[i] = 5000 // ~2 us of work each
	}
	results := CompareCPUSchemes(Xeon20(), tiny)
	byName := map[string]SchemeResult{}
	for _, r := range results {
		byName[r.Scheme] = r
	}
	if byName["OS-sched"].Elapsed < byName["PThreads"].Elapsed*2 {
		t.Fatalf("OS scheduling (%v) should trail PThreads (%v) on tiny tasks",
			byName["OS-sched"].Elapsed, byName["PThreads"].Elapsed)
	}
}

func TestOpenMPBarrierBound(t *testing.T) {
	// Fork-join per narrow task: the barrier dominates per-task time.
	results := CompareCPUSchemes(Xeon20(), narrowTasks(500))
	byName := map[string]SchemeResult{}
	for _, r := range results {
		byName[r.Scheme] = r
	}
	if byName["OpenMP"].Elapsed <= byName["PThreads"].Elapsed {
		t.Fatalf("OpenMP data parallelism (%v) should trail PThreads task parallelism (%v) on narrow tasks",
			byName["OpenMP"].Elapsed, byName["PThreads"].Elapsed)
	}
}
