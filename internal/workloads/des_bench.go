package workloads

import "repro/internal/prng"

// 3DES benchmark: "network routers encrypt multiple packets as they arrive,
// each of which is represented as a narrow task. We use NetBench to generate
// varied sizes of network packets" (Table 4). Table 3: packets sized 2K-64K,
// irregular.

// netbenchPacketBytes draws a packet size from a NetBench-like bimodal
// distribution over the paper's 2K..64K range: mostly small-to-medium
// packets with a heavy tail of maximum-size transfers.
func netbenchPacketBytes(rng *prng.Xorshift) int {
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // 40%: small bulk
		return 2048 << uint(rng.Intn(2)) // 2K or 4K
	case 4, 5, 6: // 30%: medium
		return 8192 << uint(rng.Intn(2)) // 8K or 16K
	default: // 30%: large
		return 32768 << uint(rng.Intn(2)) // 32K or 64K
	}
}

// TripleDESBench returns the 3DES benchmark.
func TripleDESBench() Benchmark {
	return Benchmark{
		Name: "3DES",
		Make: make3DES,
	}
}

func make3DES(opt Options) []TaskDef {
	rng := prng.New(opt.Seed)
	threads := opt.threads(128)
	cipher := NewTripleDES(0x0123456789ABCDEF, 0x23456789ABCDEF01, 0x456789ABCDEF0123)

	tasks := make([]TaskDef, opt.Tasks)
	for i := range tasks {
		bytes := netbenchPacketBytes(rng)
		if opt.InputSize > 0 {
			bytes = opt.InputSize
		}
		blocks := bytes / 8

		var packet, want []uint64
		if opt.Verify {
			packet = make([]uint64, blocks)
			for p := range packet {
				packet[p] = rng.Next()
			}
			want = make([]uint64, blocks)
			for p := range packet {
				want[p] = cipher.EncryptBlock(packet[p])
			}
		}

		t := TaskDef{
			Name:      "3DES",
			Threads:   opt.pickThreads(threads, blocks, 1024),
			Blocks:    1,
			ArgBytes:  64,
			Regs:      26,
			InBytes:   bytes,
			OutBytes:  bytes,
			CPUCycles: float64(blocks) * desCPUCyclesPerBlock,
		}
		t.Kernel = func(c DeviceCtx) {
			if packet != nil {
				c.ForEachLane(func(tid int) {
					lo, hi := laneUnits(c, blocks, tid)
					for p := lo; p < hi; p++ {
						packet[p] = cipher.EncryptBlock(packet[p])
					}
				})
			}
			// S-box lookups diverge across lanes; charge a divergence factor
			// on top of the per-block cost.
			chargeWarp(c, blocks, desCyclesPerBlock*1.3, bytes, bytes, 4)
		}
		if opt.Verify {
			t.CPURun = func() { cipher.EncryptPacket(packet) }
			t.Check = func() error { return equalU64("3DES", packet, want) }
		}
		tasks[i] = t
	}
	return tasks
}

// MPEBench returns the Multi-Programmed Environment benchmark of Table 4:
// equal parts 3DES and Mandelbrot (irregular computation), FilterBank
// (threadblock synchronization) and MatrixMul (shared memory), interleaved
// task-by-task as the applications generate work asynchronously.
func MPEBench() Benchmark {
	return Benchmark{
		Name:           "MPE",
		SupportsShared: true,
		Make:           makeMPE,
	}
}

func makeMPE(opt Options) []TaskDef {
	per := opt.Tasks / 4
	sub := opt
	sub.Tasks = per
	parts := [][]TaskDef{
		make3DES(sub),
		makeMB(sub),
		makeFB(sub),
		makeMM(sub),
	}
	// Interleave round-robin: the four applications spawn asynchronously.
	var out []TaskDef
	for i := 0; i < per; i++ {
		for _, p := range parts {
			out = append(out, p[i])
		}
	}
	return out
}
