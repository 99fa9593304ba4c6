package workloads

import (
	"testing"

	"repro/internal/prng"
)

// Microbenchmarks of the real per-task computations (the host reference
// implementations, which also run inside verify-mode kernels).

func BenchmarkDESBlock(b *testing.B) {
	ks := DESKeySchedule(0x133457799BBCDFF1)
	var x uint64 = 0x0123456789ABCDEF
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = desBlock(x, &ks, false)
	}
	_ = x
}

func Benchmark3DESPacket2K(b *testing.B) {
	td := NewTripleDES(1, 2, 3)
	pkt := make([]uint64, 256)
	for i := range pkt {
		pkt[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	b.SetBytes(2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		td.EncryptPacket(pkt)
	}
}

func BenchmarkDCT8x8Image128(b *testing.B) {
	rng := prng.New(1)
	in := make([]float32, 128*128)
	for i := range in {
		in[i] = float32(rng.Float01())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = dctRef(in, 128)
	}
}

func BenchmarkConv128(b *testing.B) {
	rng := prng.New(2)
	in := make([]float32, 128*128)
	for i := range in {
		in[i] = float32(rng.Float01())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = convRef(in, 128)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := prng.New(3)
	a := make([]float32, 64*64)
	c := make([]float32, 64*64)
	for i := range a {
		a[i] = float32(rng.Float01())
		c[i] = float32(rng.Float01())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = mmRef(a, c, 64)
	}
}

func BenchmarkMandelbrotTile64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = mbTile(-0.75, 0.05, 2.5/4096, 64, mbMaxIter)
	}
}

func BenchmarkFilterBankSignal2K(b *testing.B) {
	rng := prng.New(4)
	sig := make([]float32, 2048)
	h := make([]float32, fbTaps)
	f := make([]float32, fbTaps)
	for i := range sig {
		sig[i] = float32(rng.Float01())
	}
	for i := range h {
		h[i], f[i] = float32(rng.Float01()), float32(rng.Float01())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = fbRef(sig, h, f)
	}
}

func BenchmarkSparseLUBlockBMOD(b *testing.B) {
	rng := prng.New(5)
	mk := func() []float64 {
		m := make([]float64, sludBS*sludBS)
		for i := range m {
			m[i] = rng.Float01() + 1
		}
		return m
	}
	a, bb, c := mk(), mk(), mk()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sludBMODRef(a, bb, c)
	}
}

func BenchmarkTaskGeneration(b *testing.B) {
	for _, bench := range All() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = bench.Make(Options{Tasks: 64, Seed: 1})
			}
		})
	}
}
