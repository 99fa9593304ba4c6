// Package cuda is a miniature CUDA runtime over the simulated device: it
// provides streams with FIFO semantics, asynchronous host<->device memory
// copies over the PCIe model, kernel launches with driver overhead, and the
// HyperQ concurrent-kernel limit (CUDA_DEVICE_MAX_CONNECTIONS).
//
// Host code runs as simulation processes (sim.Proc); the stream commands run
// on per-stream worker processes, so host enqueue is cheap and asynchronous
// exactly as in CUDA.
package cuda

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// Config holds runtime-layer parameters, in cycles.
type Config struct {
	// MaxConnections caps device-side kernel concurrency (HyperQ). The paper
	// sets CUDA_DEVICE_MAX_CONNECTIONS=32.
	MaxConnections int
	// LaunchOverhead is the driver + doorbell cost between a kernel reaching
	// the head of its stream and its threadblocks becoming dispatchable.
	LaunchOverhead sim.Time
	// EnqueueCost is the host-side cost of an async copy API call.
	EnqueueCost sim.Time
	// LaunchCPUCost is the host-side cost of cudaLaunchKernel — several
	// times an async-copy enqueue on real drivers, and the dominant
	// per-task cost when thousands of narrow kernels are launched (the
	// effect Pagoda's 1-memcpy taskSpawn avoids).
	LaunchCPUCost sim.Time
	// CopyIssueGap is the minimum spacing between successive DMA transfers
	// issued by one stream. Unlike plain MemcpyH2D, pipelined copies overlap
	// their PCIe latency: the DMA engine issues the next transfer as soon as
	// the previous one is on the wire.
	CopyIssueGap sim.Time
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{
		MaxConnections: 32,
		LaunchOverhead: 4000, // ~4 us device-side launch-to-dispatch
		EnqueueCost:    600,  // ~0.6 us per async copy call
		LaunchCPUCost:  1600, // ~1.6 us host-side per kernel launch
		CopyIssueGap:   400,  // ~0.4 us between small pipelined DMA issues
	}
}

// Context owns a device, a PCIe bus and the HyperQ connection pool.
type Context struct {
	Eng *sim.Engine
	Dev *gpu.Device
	Bus *pcie.Bus
	Cfg Config

	hyperQ  *sim.Sem
	streams []*Stream
}

// NewContext assembles a runtime over the given device and bus.
func NewContext(eng *sim.Engine, dev *gpu.Device, bus *pcie.Bus, cfg Config) *Context {
	if cfg.MaxConnections <= 0 {
		panic("cuda: MaxConnections must be positive")
	}
	return &Context{Eng: eng, Dev: dev, Bus: bus, Cfg: cfg, hyperQ: sim.NewSem(cfg.MaxConnections)}
}

// command is one queued stream operation.
type command func(p *sim.Proc)

// Stream is a CUDA stream: commands issued to it run FIFO, each completing
// before the next starts; commands in different streams may overlap.
type Stream struct {
	ctx      *Context
	id       int
	queue    sim.FIFO[command]
	notEmpty sim.Signal
	inFlight int // queued + running commands
	idleSig  sim.Signal

	// Pipelined-copy delivery ordering: completions are held back until all
	// earlier pipelined copies on this stream have delivered, preserving the
	// CUDA-stream FIFO guarantee while transfers overlap on the bus.
	issueSeq   int64
	deliverSeq int64
	held       map[int64]func()
	pipelined  int // issued but not yet delivered pipelined copies
}

// NewStream creates a stream and starts its worker process.
func (c *Context) NewStream() *Stream {
	s := &Stream{ctx: c, id: len(c.streams)}
	c.streams = append(c.streams, s)
	c.Eng.Spawn(fmt.Sprintf("stream%d", s.id), s.worker)
	return s
}

func (s *Stream) worker(p *sim.Proc) {
	for {
		for s.queue.Len() == 0 {
			s.notEmpty.Wait(p)
		}
		s.queue.Pop()(p)
		s.inFlight--
		if s.inFlight == 0 {
			s.idleSig.Broadcast()
		}
	}
}

// enqueue appends a command, charging the host's enqueue cost to `host`.
func (s *Stream) enqueue(host *sim.Proc, cmd command) {
	host.Sleep(s.ctx.Cfg.EnqueueCost)
	s.queue.Push(cmd)
	s.inFlight++
	s.notEmpty.Broadcast()
}

// Sync blocks the host process until every command enqueued so far has
// completed (cudaStreamSynchronize), including pipelined copy deliveries.
func (s *Stream) Sync(host *sim.Proc) {
	for s.inFlight > 0 || s.pipelined > 0 {
		s.idleSig.Wait(host)
	}
}

// MemcpyH2DPipelined enqueues a small host-to-device copy that overlaps its
// PCIe latency with later copies on the same stream: the stream only
// serializes the DMA issue gap, and completions are delivered strictly in
// issue order. This is the transfer mode behind Pagoda's one-memcpy-per-
// TaskTable-entry spawning (§4.2.1): back-to-back entry copies approach the
// DMA issue rate instead of paying the full bus latency each.
func (s *Stream) MemcpyH2DPipelined(host *sim.Proc, bytes int, onDone func()) {
	s.enqueue(host, func(p *sim.Proc) {
		seq := s.issueSeq
		s.issueSeq++
		s.pipelined++
		p.Sleep(s.ctx.Cfg.CopyIssueGap)
		s.ctx.Bus.TransferAsync(pcie.HostToDevice, bytes, func() {
			s.deliver(seq, onDone)
		})
	})
}

// deliver runs completion callbacks in issue order.
func (s *Stream) deliver(seq int64, fn func()) {
	if s.held == nil {
		s.held = make(map[int64]func())
	}
	if fn == nil {
		fn = func() {}
	}
	s.held[seq] = fn
	for {
		f, ok := s.held[s.deliverSeq]
		if !ok {
			return
		}
		delete(s.held, s.deliverSeq)
		s.deliverSeq++
		f()
		s.pipelined--
		if s.inFlight == 0 && s.pipelined == 0 {
			s.idleSig.Broadcast()
		}
	}
}

// MemcpyH2D enqueues an async host-to-device copy of `bytes`; the copy
// completes before any later command in the stream starts.
func (s *Stream) MemcpyH2D(host *sim.Proc, bytes int) {
	s.enqueue(host, func(p *sim.Proc) {
		s.ctx.Bus.Transfer(p, pcie.HostToDevice, bytes)
	})
}

// MemcpyD2H enqueues an async device-to-host copy; onDone (may be nil) runs
// when the copy completes, before any later command in the stream starts.
func (s *Stream) MemcpyD2H(host *sim.Proc, bytes int, onDone func()) {
	s.enqueue(host, func(p *sim.Proc) {
		s.ctx.Bus.Transfer(p, pcie.DeviceToHost, bytes)
		if onDone != nil {
			onDone()
		}
	})
}

// MemcpyH2DSync performs a synchronous copy from the host process.
func (c *Context) MemcpyH2DSync(host *sim.Proc, bytes int) {
	c.Bus.Transfer(host, pcie.HostToDevice, bytes)
}

// MemcpyD2HSync performs a synchronous copy to the host process.
func (c *Context) MemcpyD2HSync(host *sim.Proc, bytes int) {
	c.Bus.Transfer(host, pcie.DeviceToHost, bytes)
}

// KernelHandle tracks a kernel launched through a stream.
type KernelHandle struct {
	finished bool
	doneSig  sim.Signal
}

// Wait parks the host until the kernel completes (cudaEventSynchronize on a
// post-kernel event).
func (h *KernelHandle) Wait(host *sim.Proc) {
	for !h.finished {
		h.doneSig.Wait(host)
	}
}

// Launch enqueues a kernel on the stream. The kernel consumes a HyperQ
// connection from launch overhead until completion; at most MaxConnections
// kernels are concurrently resident device-wide.
func (s *Stream) Launch(host *sim.Proc, spec gpu.LaunchSpec) *KernelHandle {
	return s.LaunchHooked(host, spec, nil)
}

// LaunchHooked is Launch with an observation hook: onDispatch (may be nil)
// runs at the virtual instant the kernel's threadblocks become dispatchable —
// after the stream reached it, a HyperQ connection was acquired and the
// launch overhead elapsed. Open-loop latency accounting uses it to split a
// task's submit-to-complete time into queue wait and service. The hook runs
// on the stream worker and must not block.
func (s *Stream) LaunchHooked(host *sim.Proc, spec gpu.LaunchSpec, onDispatch func()) *KernelHandle {
	h := &KernelHandle{}
	c := s.ctx
	host.Sleep(c.Cfg.LaunchCPUCost - c.Cfg.EnqueueCost) // extra driver work vs a copy enqueue
	s.enqueue(host, func(p *sim.Proc) {
		c.hyperQ.Acquire(p)
		p.Sleep(c.Cfg.LaunchOverhead)
		k := c.Dev.Launch(spec)
		if onDispatch != nil {
			onDispatch()
		}
		k.WaitDone(p)
		c.hyperQ.Release()
		h.finished = true
		h.doneSig.Broadcast()
	})
	return h
}

// LaunchPersistent dispatches a kernel directly to the device, bypassing
// streams and the HyperQ pool. This is how a daemon kernel such as Pagoda's
// MasterKernel takes ownership of the whole device.
func (c *Context) LaunchPersistent(spec gpu.LaunchSpec) *gpu.Kernel {
	return c.Dev.Launch(spec)
}
