// Package hostcpu models the paper's CPU baseline platform: two
// hyper-threaded Intel Xeon E5-2660 sockets, 20 physical cores at 2.6 GHz,
// running a PThreads-style task pool.
//
// Simulated time is measured in GPU cycles (1 cycle = 1 ns); a task that
// costs N CPU cycles occupies one core for N/FreqGHz nanoseconds.
package hostcpu

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes the host CPU.
type Config struct {
	Cores   int     // physical cores used by the pool
	FreqGHz float64 // core frequency
	// DispatchCost is the per-task pool overhead (enqueue + wakeup), in ns.
	DispatchCost sim.Time
}

// Xeon20 returns the paper's 20-core dual-socket configuration.
func Xeon20() Config {
	return Config{Cores: 20, FreqGHz: 2.6, DispatchCost: 900}
}

// Pool is a PThreads-style fixed worker pool.
type Pool struct {
	cfg      Config
	queue    []float64 // queued tasks' costs in CPU cycles on one core
	notEmpty sim.Signal
	pending  int // queued + running tasks
	idle     sim.Signal

	// TasksRun counts completed tasks.
	TasksRun int
}

// NewPool starts `cfg.Cores` worker processes.
func NewPool(eng *sim.Engine, cfg Config) *Pool {
	if cfg.Cores <= 0 || cfg.FreqGHz <= 0 {
		panic("hostcpu: invalid config")
	}
	p := &Pool{cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		eng.Spawn(fmt.Sprintf("cpu-core%d", i), p.worker)
	}
	return p
}

func (p *Pool) worker(proc *sim.Proc) {
	for {
		for len(p.queue) == 0 {
			p.notEmpty.Wait(proc)
		}
		cycles := p.queue[0]
		p.queue = p.queue[1:]
		proc.Sleep(cycles / p.cfg.FreqGHz)
		p.TasksRun++
		p.pending--
		if p.pending == 0 {
			p.idle.Broadcast()
		}
	}
}

// Submit enqueues a task costing cycles CPU cycles on one core from the
// given host process, charging dispatch overhead to the submitter.
func (p *Pool) Submit(host *sim.Proc, cycles float64) {
	host.Sleep(p.cfg.DispatchCost)
	p.queue = append(p.queue, cycles)
	p.pending++
	p.notEmpty.Broadcast()
}

// WaitAll parks the host until every submitted task has completed.
func (p *Pool) WaitAll(host *sim.Proc) {
	for p.pending > 0 {
		p.idle.Wait(host)
	}
}

// Run is the one way every CPU scheme drives a Pool: a host process submits
// every task (its cost in CPU cycles), in order, to a fresh Pool on eng and
// waits for them all. It runs the engine and returns the instant the last
// task completed and the number of tasks run.
func Run(eng *sim.Engine, cfg Config, tasks []float64) (end sim.Time, ran int) {
	pool := NewPool(eng, cfg)
	eng.Spawn("cpu-host", func(p *sim.Proc) {
		for i := range tasks {
			pool.Submit(p, tasks[i])
		}
		pool.WaitAll(p)
		end = eng.Now()
	})
	eng.Run()
	return end, pool.TasksRun
}
