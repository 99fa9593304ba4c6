// Package pcie models the PCI Express link between host and device: a fixed
// per-transaction latency plus a shared-bandwidth pipe per direction.
//
// Two properties matter to the Pagoda runtime and are preserved here:
//
//  1. Transactions are expensive (microseconds), so fine-grained CPU-GPU
//     handshaking dominates narrow-task runtimes that do it per task.
//  2. There is no cross-transaction ordering or atomicity guarantee; only
//     the CUDA stream layer above provides FIFO completion per stream.
//
// Bandwidth is shared equally among in-flight transfers in the same
// direction (a sim.Share with no per-transfer cap), so bulk aggregated
// copies achieve better effective bandwidth than many small ones — the
// property behind the TaskTable's lazy aggregate updates (§4.2).
package pcie

import (
	"math"

	"repro/internal/sim"
)

// Dir is a transfer direction.
type Dir int

const (
	HostToDevice Dir = iota
	DeviceToHost
)

func (d Dir) String() string {
	if d == HostToDevice {
		return "H2D"
	}
	return "D2H"
}

// Config describes the link. Defaults model PCIe 3.0 x16 on the paper's
// testbed: ~12 GB/s effective per direction, ~8 µs end-to-end transaction
// latency. Times are in GPU cycles (1 cycle = 1 ns).
type Config struct {
	BytesPerCycle float64 // effective bandwidth per direction (12 B/cycle = 12 GB/s)
	Latency       sim.Time
}

// Default returns the paper-testbed link model.
func Default() Config {
	return Config{BytesPerCycle: 12, Latency: 8000}
}

// Bus is the simulated link. Each direction has an independent fair share
// of the bandwidth (PCIe is full duplex).
type Bus struct {
	eng *sim.Engine
	cfg Config
	bw  [2]*sim.Share

	// Transfers and BytesMoved count completed transactions (diagnostics and
	// handshake accounting in experiments). Started and BytesRequested count
	// transaction starts, so mid-run sampling sees in-flight traffic too:
	// Started-Transfers is the number of transactions currently on the wire.
	Transfers      [2]int
	BytesMoved     [2]int64
	Started        [2]int
	BytesRequested [2]int64
}

// New creates a bus on the engine.
func New(eng *sim.Engine, cfg Config) *Bus {
	if cfg.BytesPerCycle <= 0 {
		panic("pcie: non-positive bandwidth")
	}
	return &Bus{
		eng: eng,
		cfg: cfg,
		bw: [2]*sim.Share{
			sim.NewShare(eng, cfg.BytesPerCycle, math.Inf(1)),
			sim.NewShare(eng, cfg.BytesPerCycle, math.Inf(1)),
		},
	}
}

// Transfer moves `bytes` in direction d, blocking the calling process for
// the transaction latency plus bandwidth-shared transfer time. The start is
// counted before the process blocks and the completion after, so diagnostics
// sampled mid-run (e.g. handshake counts taken before quiesce) see in-flight
// transactions rather than undercounting them.
func (b *Bus) Transfer(p *sim.Proc, d Dir, bytes int) {
	if bytes < 0 {
		panic("pcie: negative transfer size")
	}
	b.Started[d]++
	b.BytesRequested[d] += int64(bytes)
	p.Sleep(b.cfg.Latency)
	b.bw[d].Acquire(p, float64(bytes))
	b.Transfers[d]++
	b.BytesMoved[d] += int64(bytes)
}

// TransferAsync starts a transfer and invokes onDone (on the event loop)
// when it completes, without blocking the caller.
func (b *Bus) TransferAsync(d Dir, bytes int, onDone func()) {
	x := &xfer{bus: b, dir: d, bytes: bytes, onDone: onDone}
	b.eng.Start(&x.proc, x)
}

// xfer is one asynchronous transfer together with the process that runs it,
// so starting one is a single allocation.
type xfer struct {
	proc   sim.Proc
	bus    *Bus
	dir    Dir
	bytes  int
	onDone func()
}

func (x *xfer) Run(p *sim.Proc) {
	x.bus.Transfer(p, x.dir, x.bytes)
	if x.onDone != nil {
		x.onDone()
	}
}

func (x *xfer) String() string { return "pcie-xfer" }

// MinTransferTime returns the uncontended time to move `bytes` (latency +
// bytes/bandwidth) — useful as an analytic lower bound in tests.
//
//pagoda:allow unused test support: the pcie and cuda tests' expected-time oracle
func (b *Bus) MinTransferTime(bytes int) sim.Time {
	return b.cfg.Latency + float64(bytes)/b.cfg.BytesPerCycle
}
