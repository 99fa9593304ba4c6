package tenancy

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/prng"
	"repro/internal/serve"
	"repro/internal/sim"
)

func twoClasses(slo sim.Time) []Class {
	return []Class{
		{Name: "hi", Priority: 1, Rate: 1e4, Burst: 4, SLO: slo,
			Gen: serve.FixedRate{Rate: 1e4}},
		{Name: "lo", Priority: 0, Rate: 1e4, Burst: 4, SLO: 4 * slo,
			Gen: serve.FixedRate{Rate: 1e4}},
	}
}

func TestMergeSingleClassReducesToGenerator(t *testing.T) {
	cl := []Class{{Name: "only", Priority: 0, Rate: 2e4, Burst: 1, SLO: 1e6,
		Gen: serve.Poisson{Rate: 2e4, Seed: 7}}}
	arr, classOf := Merge(cl, []int{64})
	want := cl[0].Gen.Times(64)
	if len(arr) != 64 {
		t.Fatalf("merged %d arrivals, want 64", len(arr))
	}
	for i := range arr {
		if arr[i] != want[i] {
			t.Fatalf("arrival %d = %v, want %v (single class must reduce to Gen.Times)", i, arr[i], want[i])
		}
		if classOf[i] != 0 {
			t.Fatalf("classOf[%d] = %d, want 0", i, classOf[i])
		}
	}
}

func TestMergeInterleavesSortedWithStableTies(t *testing.T) {
	cl := twoClasses(1e6)
	// Identical fixed-rate streams: every instant ties, and the tie must go
	// to the lower class index.
	arr, classOf := Merge(cl, []int{8, 8})
	if len(arr) != 16 {
		t.Fatalf("merged %d arrivals, want 16", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatalf("merged arrivals decrease at %d: %v < %v", i, arr[i], arr[i-1])
		}
	}
	for i := 0; i < 16; i += 2 {
		if classOf[i] != 0 || classOf[i+1] != 1 {
			t.Fatalf("tie at pair %d broke to classes (%d,%d), want (0,1)", i/2, classOf[i], classOf[i+1])
		}
	}
	counts := make([]int, 2)
	for _, c := range classOf {
		counts[c]++
	}
	if counts[0] != 8 || counts[1] != 8 {
		t.Fatalf("per-class counts %v, want [8 8]", counts)
	}
}

// TestStrictNeverAdmitsLowerWhileHigherWaits drives the strict layer with a
// scrambled presentation order (the Pagoda multi-spawner shape) and checks
// the defining invariant at every step: a lower-class task is never served
// while any higher-class task has arrived but not been presented.
func TestStrictNeverAdmitsLowerWhileHigherWaits(t *testing.T) {
	cl := twoClasses(1e6)
	arr, classOf := Merge(cl, []int{40, 40})
	a := NewAdmission(AdmitStrict, cl, arr, classOf, 64, false)

	// Presentation order: a deterministic shuffle of the task indices,
	// presented at now = its arrival or later (we use the max arrival so
	// everything has "arrived" and waiting-work pressure is maximal).
	order := shuffled(len(arr), 99)
	now := arr[len(arr)-1] + 1

	presented := make([]bool, len(arr))
	hiWaiting := func() int {
		n := 0
		for i := range arr {
			if classOf[i] == 0 && !presented[i] {
				n++
			}
		}
		return n
	}
	for _, ti := range order {
		wait := hiWaiting()
		got := a.AdmitTask(ti, now, 0)
		presented[ti] = true
		if classOf[ti] == 1 && wait > 0 && got {
			t.Fatalf("strict admitted lower-class task %d while %d higher-class tasks waited", ti, wait)
		}
		if classOf[ti] == 0 && !got {
			t.Fatalf("strict refused top-class task %d with an empty backlog", ti)
		}
	}
	for i, o := range a.Outcomes() {
		if o == Pending {
			t.Fatalf("task %d still pending after presentation", i)
		}
	}
}

// TestStrictRankNestedBacklog checks the inFlight half of the strict
// policy: the top class may fill the whole limit, the next rank half of it.
func TestStrictRankNestedBacklog(t *testing.T) {
	cl := twoClasses(1e6)
	arr, classOf := Merge(cl, []int{4, 4})
	a := NewAdmission(AdmitStrict, cl, arr, classOf, 8, false)
	now := arr[len(arr)-1] + 1

	// Present all hi tasks first so no higher-class work waits.
	for ti := range arr {
		if classOf[ti] == 0 {
			a.AdmitTask(ti, now, 0)
		}
	}
	var loTasks []int
	for ti := range arr {
		if classOf[ti] == 1 {
			loTasks = append(loTasks, ti)
		}
	}
	// Rank 1: threshold is limit>>1 = 4.
	if a.AdmitTask(loTasks[0], now, 3) != true {
		t.Fatalf("lower class refused below its backlog share")
	}
	if a.AdmitTask(loTasks[1], now, 4) != false {
		t.Fatalf("lower class admitted at its rank-nested threshold")
	}
	if a.Outcomes()[loTasks[1]] != Evicted {
		t.Fatalf("threshold refusal recorded as %v, want evicted", a.Outcomes()[loTasks[1]])
	}
}

// TestWFQWorkConservingBelowLimit: with no SLO pressure WFQ admits every
// policed task, below the backlog limit and at saturation alike; with a
// higher class's head-of-line task aged past half its SLO it evicts exactly
// the lower-class presentations, whatever the backlog.
func TestWFQWorkConservingBelowLimit(t *testing.T) {
	cl := twoClasses(1e15) // astronomically loose SLO: guard never fires
	arr, classOf := Merge(cl, []int{16, 16})
	a := NewAdmission(AdmitWFQ, cl, arr, classOf, 64, false)
	now := arr[len(arr)-1] + 1
	for ti := range arr {
		if !a.AdmitTask(ti, now, ti%8) {
			t.Fatalf("work-conserving WFQ refused task %d below the limit", ti)
		}
	}

	// Saturation: three backlogged classes presented in a scrambled order
	// with the backlog at or past the limit.
	const limit = 8
	threeClasses := func(slo sim.Time) []Class {
		return append(twoClasses(slo), Class{Name: "batch", Priority: -1, Rate: 1e4, Burst: 4,
			SLO: 16 * slo, Gen: serve.FixedRate{Rate: 1e4}})
	}
	cl = threeClasses(1e15)
	arr, classOf = Merge(cl, []int{16, 16, 16})
	a = NewAdmission(AdmitWFQ, cl, arr, classOf, limit, false)
	now = arr[len(arr)-1] + 1
	for i, ti := range shuffled(len(arr), 7) {
		if !a.AdmitTask(ti, now, limit+i%4) {
			t.Fatalf("saturated WFQ refused task %d (class %s) with no SLO pressure", ti, cl[classOf[ti]].Name)
		}
	}

	// The same saturation with the last top-class task held back and aged
	// past half its SLO: every other top-class task is served, every
	// lower-class task evicted, and the held-back task is served last.
	slo := sim.Time(1e6)
	cl = threeClasses(slo)
	arr, classOf = Merge(cl, []int{16, 16, 16})
	a = NewAdmission(AdmitWFQ, cl, arr, classOf, limit, false)
	hold := -1
	for ti, c := range classOf {
		if c == 0 {
			hold = ti
		}
	}
	now = arr[hold] + slo
	for _, ti := range shuffled(len(arr), 11) {
		if ti == hold {
			continue
		}
		if got, want := a.AdmitTask(ti, now, limit), classOf[ti] == 0; got != want {
			t.Fatalf("task %d (class %s) admitted = %v while the top class aged past half its SLO, want %v",
				ti, cl[classOf[ti]].Name, got, want)
		}
	}
	if !a.AdmitTask(hold, now, limit) {
		t.Fatalf("WFQ refused the aged top-class task")
	}
	for ti, o := range a.Outcomes() {
		want := Evicted
		if classOf[ti] == 0 {
			want = Served
		}
		if o != want {
			t.Fatalf("task %d (class %s) outcome %v, want %v", ti, cl[classOf[ti]].Name, o, want)
		}
	}
}

// shuffled returns a deterministic permutation of 0..n-1.
func shuffled(n int, seed int64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := prng.Xorshift(seed)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// TestOldestWaitingMatchesWaitingCount: the head-of-line signal both
// policies read says a class has waiting work exactly when a brute-force
// count of its arrived, unpresented tasks is positive. Random classes with
// tied, sorted arrivals are presented in random out-of-order sequences (the
// Pagoda multi-spawner shape), and every class is checked at a random
// instant after each presentation.
func TestOldestWaitingMatchesWaitingCount(t *testing.T) {
	rng := prng.New(3)
	for trial := 0; trial < 300; trial++ {
		nc := 1 + rng.Intn(4)
		cl := make([]Class, nc)
		for c := range cl {
			cl[c] = Class{Name: fmt.Sprintf("c%d", c), Priority: rng.Intn(3)}
		}
		n := rng.Intn(48)
		arr := make([]sim.Time, n)
		classOf := make([]int, n)
		for ti := range arr {
			if ti > 0 {
				arr[ti] = arr[ti-1] + sim.Time(rng.Intn(3)) // ties are common
			}
			classOf[ti] = rng.Intn(nc)
		}
		a := NewAdmission(AdmitNone, cl, arr, classOf, 0, false)
		presented := make([]bool, n)
		horizon := 2
		if n > 0 {
			horizon += int(arr[n-1])
		}
		for _, ti := range shuffled(n, int64(trial)+1) {
			a.AdmitTask(ti, arr[ti], 0)
			presented[ti] = true
			now := sim.Time(rng.Intn(horizon))
			for c := range cl {
				count := 0
				for tj := range arr {
					if classOf[tj] == c && arr[tj] <= now && !presented[tj] {
						count++
					}
				}
				at, ok := a.oldestWaiting(c, now)
				if ok != (count > 0) {
					t.Fatalf("trial %d: class %d at %v: oldestWaiting ok = %v, but %d tasks arrived unpresented", trial, c, now, ok, count)
				}
				if ok && (at > now || a.at[c][a.head[c]] != at) {
					t.Fatalf("trial %d: class %d at %v: oldestWaiting returned arrival %v", trial, c, now, at)
				}
			}
		}
	}
}

// TestWFQSLOGuardPreempts: a lower-class task presented while a
// higher-class task has waited past half its SLO must be evicted, even
// with free capacity.
func TestWFQSLOGuardPreempts(t *testing.T) {
	slo := sim.Time(1e6)
	cl := twoClasses(slo)
	arr, classOf := Merge(cl, []int{4, 4})
	a := NewAdmission(AdmitWFQ, cl, arr, classOf, 64, false)

	// Find a lo task and an unpresented hi arrival; present the lo task at
	// an instant where the hi head-of-line age exceeds slo/2.
	hiOldest := sim.Time(math.Inf(1))
	for ti := range arr {
		if classOf[ti] == 0 && arr[ti] < hiOldest {
			hiOldest = arr[ti]
		}
	}
	var lo int
	for ti := range arr {
		if classOf[ti] == 1 {
			lo = ti
		}
	}
	now := hiOldest + slo // age = slo > slo/2
	if a.AdmitTask(lo, now, 0) {
		t.Fatalf("WFQ admitted a lower-class task while a higher class aged past half its SLO")
	}
	if a.Outcomes()[lo] != Evicted {
		t.Fatalf("SLO-guard preemption recorded as %v, want evicted", a.Outcomes()[lo])
	}
}

// TestConservation presents every task exactly once under each policy, with
// policing on, and checks the admission-layer books balance: offered =
// shed + evicted + served, AdmitTask's return value matches the recorded
// outcome, and nothing stays pending.
func TestConservation(t *testing.T) {
	for _, kind := range Kinds() {
		cl := twoClasses(1e6)
		// Over-offer both classes (FixedRate 1e4 arrivals against a token
		// bucket refilling at 1e4/s admits early bursts then sheds).
		cl[0].Rate, cl[1].Rate = 2e3, 2e3
		arr, classOf := Merge(cl, []int{60, 60})
		a := NewAdmission(kind, cl, arr, classOf, 8, true)

		served, shed, evicted := 0, 0, 0
		rng := prng.Xorshift(5)
		inFlight := 0
		for ti := range arr {
			got := a.AdmitTask(ti, arr[ti], inFlight)
			switch o := a.Outcomes()[ti]; o {
			case Served:
				served++
				inFlight++
				if !got {
					t.Fatalf("%s: task %d refused but recorded served", kind, ti)
				}
			case Shed:
				shed++
				if got {
					t.Fatalf("%s: task %d admitted but recorded shed", kind, ti)
				}
			case Evicted:
				evicted++
				if got {
					t.Fatalf("%s: task %d admitted but recorded evicted", kind, ti)
				}
			default:
				t.Fatalf("%s: task %d outcome %v after presentation", kind, ti, o)
			}
			if inFlight > 0 && rng.Intn(2) == 0 {
				inFlight-- // a completion
			}
		}
		if served+shed+evicted != len(arr) {
			t.Fatalf("%s: %d served + %d shed + %d evicted != %d offered", kind, served, shed, evicted, len(arr))
		}
		if kind == AdmitNone && (shed != 0 || evicted != 0) {
			t.Fatalf("none policy shed %d / evicted %d tasks", shed, evicted)
		}
		if kind != AdmitNone && shed == 0 {
			t.Fatalf("%s: policing on and over-offered, but nothing was shed", kind)
		}
	}
}

func TestSummarizeClassesSplitsOutcomes(t *testing.T) {
	cl := twoClasses(1000)
	recs := []serve.Record{
		{Submit: 0, Start: 10, Done: 500},  // hi, within SLO
		{Submit: 0, Start: 10, Done: 2000}, // hi, SLO violation
		{Dropped: true},                    // hi, shed
		{Submit: 5, Start: 20, Done: 900},  // lo, within its 4x SLO
		{Dropped: true},                    // lo, evicted
	}
	classOf := []int{0, 0, 0, 1, 1}
	outcomes := []Outcome{Served, Served, Shed, Served, Evicted}
	st := SummarizeClasses(cl, classOf, recs, outcomes)
	if len(st) != 2 {
		t.Fatalf("got %d class summaries, want 2", len(st))
	}
	hi, lo := st[0], st[1]
	if hi.Class != "hi" || hi.Offered != 3 || hi.Completed != 2 || hi.Shed != 1 || hi.Evicted != 0 {
		t.Fatalf("hi summary off: %+v", hi)
	}
	if hi.Violations != 1 {
		t.Fatalf("hi violations = %d, want 1", hi.Violations)
	}
	if lo.Offered != 2 || lo.Shed != 0 || lo.Evicted != 1 || lo.Violations != 0 {
		t.Fatalf("lo summary off: %+v", lo)
	}
	if hi.Dropped != hi.Shed+hi.Evicted || lo.Dropped != lo.Shed+lo.Evicted {
		t.Fatalf("dropped != shed + evicted: hi %+v lo %+v", hi, lo)
	}
}

func TestDefaultClasses(t *testing.T) {
	horizon := sim.Time(50e6)
	cls := DefaultClasses(3, 20e3, 1e6, horizon, 1, 1)
	if len(cls) != 3 {
		t.Fatalf("got %d classes, want 3", len(cls))
	}
	names := []string{"premium", "standard", "batch"}
	for i, c := range cls {
		if c.Name != names[i] {
			t.Errorf("class %d named %s, want %s", i, c.Name, names[i])
		}
		if err := c.Validate(); err != nil {
			t.Errorf("class %s invalid: %v", c.Name, err)
		}
		if i > 0 && cls[i-1].Priority <= c.Priority {
			t.Errorf("priorities not strictly decreasing at %d", i)
		}
	}
	// The misbehaving class offers ~10x its contract: its arrival stream
	// covers the same span in a tenth of the tasks' worth of time.
	honest := DefaultClasses(3, 20e3, 1e6, horizon, 1, -1)
	n := 200
	mis := cls[1].Gen.Times(n)
	ok := honest[1].Gen.Times(n)
	if mis[n-1] > ok[n-1]/5 {
		t.Errorf("misbehaving stream not ~10x faster: last arrivals %v vs %v", mis[n-1], ok[n-1])
	}
	if cls[1].Rate != honest[1].Rate {
		t.Errorf("misbehaving class changed its contracted rate")
	}
	// Extra classes extend the batch tier at decreasing priority.
	five := DefaultClasses(5, 20e3, 1e6, horizon, 1, -1)
	if five[4].Name != "batch3" || five[4].Priority >= five[3].Priority {
		t.Errorf("extra classes malformed: %+v", five[4])
	}
}

func TestAdmissionRejectsBadConfig(t *testing.T) {
	cl := twoClasses(1e6)
	arr, classOf := Merge(cl, []int{2, 2})
	for _, fn := range []func(){
		func() { NewAdmission("bogus", cl, arr, classOf, 8, false) },
		func() { NewAdmission(AdmitStrict, cl, arr, classOf, 0, false) },
		func() { NewAdmission(AdmitWFQ, cl, arr[:3], classOf, 8, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad admission config did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestAdmissionRejectsDecreasingArrivals: the merged sequence must be
// nondecreasing (what Merge emits and the dispatcher requires). A class
// whose arrivals go backwards would leave posOf pointing at the wrong
// positions, so NewAdmission panics instead of reordering them.
func TestAdmissionRejectsDecreasingArrivals(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "arrivals decrease at 1") {
			t.Fatalf("panic = %q, want an arrivals-decrease panic", msg)
		}
	}()
	NewAdmission(AdmitWFQ, twoClasses(1e6), []sim.Time{10, 5, 20}, []int{0, 0, 1}, 8, false)
}
