package tenancy

import (
	"fmt"

	"repro/internal/serve"
	"repro/internal/sim"
)

// Outcome records what the admission layer did with one task.
type Outcome int

const (
	// Pending means the task was never presented — a runner bug if it
	// survives to the end of a run.
	Pending Outcome = iota
	// Served: admitted and handed to the scheduler.
	Served
	// Shed: rejected at the door by the class token bucket — the tenant
	// exceeded its contracted rate.
	Shed
	// Evicted: passed policing (so it was admitted to the wait queue) but
	// discarded at its service instant because a more important class had
	// a stronger claim on the slot — the preemption path.
	Evicted
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Served:
		return "served"
	case Shed:
		return "shed"
	case Evicted:
		return "evicted"
	default:
		return "pending"
	}
}

// Admission policy kinds.
const (
	// AdmitNone passes every task through untouched — the no-isolation
	// baseline that shows what a misbehaving tenant does to its neighbors.
	AdmitNone = "none"
	// AdmitStrict is strict priority with contract policing: a class is
	// served only while no higher-priority class has waiting work, and the
	// backlog a class may occupy halves with each priority rank below the
	// top (limit >> rank).
	AdmitStrict = "strict"
	// AdmitWFQ is work-conserving admission with contract policing: every
	// policed task is served unless the SLO guard finds a higher class's
	// head-of-line task past half its SLO. The backlog limit does not
	// apply.
	AdmitWFQ = "wfq"
)

// Kinds lists the admission policies in sweep order.
func Kinds() []string { return []string{AdmitNone, AdmitStrict, AdmitWFQ} }

// Admission is a class-aware admission layer for one open-loop run. Plug
// its AdmitTask method into runners.ClusterOpenLoop.AdmitTask; construct a
// fresh value per run (it is stateful, like serve.TokenBucket).
//
// At each task's presentation instant the layer first polices the task's
// class against its contracted rate (a failed bucket check is a Shed — the
// task never enters the system), then asks the policy for the service slot
// (a refusal is an Evicted — the task was queued and is discarded in favor
// of more important work). Both policies read one per-class signal, the
// class's oldest arrived-but-unpresented task. Decisions are keyed on the
// task index, never on call order: under Pagoda's multi-spawner host path
// presentations are not globally ordered, only nondecreasing per spawner.
type Admission struct {
	kind    string
	classes []Class
	limit   int
	buckets []*serve.TokenBucket // nil entries when policing is off

	classOf []int
	posOf   []int        // task index -> position within its class
	at      [][]sim.Time // per-class arrival instants, ascending
	seen    [][]bool     // per-class presentation marks, by position
	head    []int        // first unpresented position per class

	outcomes []Outcome
}

// NewAdmission builds the admission layer for one run over the merged
// arrival sequence (from Merge), which must be nondecreasing. limit bounds
// the admitted-but-uncompleted backlog of the strict policy (each rank below
// the top gets half the limit of the rank above); strict and wfq both
// require it positive, and only strict reads it. police enables the
// per-class token buckets at each class's contracted Rate/Burst (AdmitNone
// ignores both — it is the pure pass-through baseline).
func NewAdmission(kind string, classes []Class, arrivals []sim.Time, classOf []int, limit int, police bool) *Admission {
	if len(arrivals) != len(classOf) {
		panic(fmt.Sprintf("tenancy: %d arrivals, %d classOf", len(arrivals), len(classOf)))
	}
	switch kind {
	case AdmitNone:
		police = false
	case AdmitStrict, AdmitWFQ:
		if limit < 1 {
			panic(fmt.Sprintf("tenancy: %s admission needs a positive backlog limit, got %d", kind, limit))
		}
	default:
		panic(fmt.Sprintf("tenancy: unknown admission kind %q (have %v)", kind, Kinds()))
	}
	a := &Admission{
		kind:     kind,
		classes:  classes,
		limit:    limit,
		buckets:  make([]*serve.TokenBucket, len(classes)),
		classOf:  classOf,
		posOf:    make([]int, len(arrivals)),
		at:       make([][]sim.Time, len(classes)),
		seen:     make([][]bool, len(classes)),
		head:     make([]int, len(classes)),
		outcomes: make([]Outcome, len(arrivals)),
	}
	for ti, c := range classOf {
		if c < 0 || c >= len(classes) {
			panic(fmt.Sprintf("tenancy: task %d names class %d of %d", ti, c, len(classes)))
		}
		if ti > 0 && arrivals[ti] < arrivals[ti-1] {
			panic(fmt.Sprintf("tenancy: arrivals decrease at %d: %v < %v", ti, arrivals[ti], arrivals[ti-1]))
		}
		a.posOf[ti] = len(a.at[c])
		a.at[c] = append(a.at[c], arrivals[ti])
	}
	for c := range classes {
		a.seen[c] = make([]bool, len(a.at[c]))
		if police {
			a.buckets[c] = serve.NewTokenBucket(classes[c].Rate, classes[c].Burst)
		}
	}
	return a
}

// Outcomes returns the per-task outcome vector (parallel to the merged task
// order). Valid after the run; tasks still Pending were never presented.
func (a *Admission) Outcomes() []Outcome { return a.outcomes }

// AdmitTask implements the runners.ClusterOpenLoop.AdmitTask contract: called
// exactly once per task at its presentation instant, with the global
// admitted-but-uncompleted backlog.
func (a *Admission) AdmitTask(ti int, now sim.Time, inFlight int) bool {
	c := a.classOf[ti]
	a.present(c, a.posOf[ti])
	if b := a.buckets[c]; b != nil && !b.Admit(now, inFlight) {
		a.outcomes[ti] = Shed
		return false
	}
	admit := true
	switch a.kind {
	case AdmitStrict:
		admit = a.admitStrict(c, now, inFlight)
	case AdmitWFQ:
		admit = !a.sloGuard(c, now)
	}
	if !admit {
		a.outcomes[ti] = Evicted
		return false
	}
	a.outcomes[ti] = Served
	return true
}

// present marks one class position presented and advances the class's
// oldest-waiting head past every presented position.
func (a *Admission) present(c, pos int) {
	if a.seen[c][pos] {
		panic(fmt.Sprintf("tenancy: class %s position %d presented twice", a.classes[c].Name, pos))
	}
	a.seen[c][pos] = true
	for a.head[c] < len(a.seen[c]) && a.seen[c][a.head[c]] {
		a.head[c]++
	}
}

// oldestWaiting returns the arrival instant of class c's oldest
// arrived-but-unpresented task, if any. Every position below head is
// presented and the class's arrivals are sorted, so such a task exists
// exactly when the head has arrived by now.
func (a *Admission) oldestWaiting(c int, now sim.Time) (sim.Time, bool) {
	if h := a.head[c]; h < len(a.at[c]) && a.at[c][h] <= now {
		return a.at[c][h], true
	}
	return 0, false
}

// admitStrict grants the slot only if no higher-priority class has waiting
// work and the backlog is within the class's rank-nested share of the
// limit: the top class may fill the whole limit, each rank below it half
// as much, so lower classes can never crowd the queue a premium burst will
// need.
func (a *Admission) admitStrict(c int, now sim.Time, inFlight int) bool {
	rank := 0
	for h := range a.classes {
		if a.classes[h].Priority <= a.classes[c].Priority {
			continue
		}
		rank++
		if _, ok := a.oldestWaiting(h, now); ok {
			return false
		}
	}
	return inFlight < a.limit>>rank
}

// sloGuard reports whether some class with higher priority than c has
// waiting work whose head-of-line age has burned more than half its SLO —
// the point where handing the slot to c instead would likely turn into a
// premium p99 miss. Preempting (evicting) the presented task here is what
// "a higher class would miss its SLO" costs the lower class.
func (a *Admission) sloGuard(c int, now sim.Time) bool {
	for h := range a.classes {
		if a.classes[h].Priority <= a.classes[c].Priority || a.classes[h].SLO <= 0 {
			continue
		}
		if at, ok := a.oldestWaiting(h, now); ok && now-at > a.classes[h].SLO/2 {
			return true
		}
	}
	return false
}
