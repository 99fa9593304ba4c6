package prng

import (
	"strings"
	"testing"
)

// TestFirstDrawsPinned pins the first draws for a few seeds. Task inputs,
// arrival streams and p2c probes all come from this generator, so any
// change here moves every report digest.
func TestFirstDrawsPinned(t *testing.T) {
	cases := []struct {
		seed int64
		want []uint64
	}{
		{0, []uint64{0xdc1b77ae0bf34dad, 0x64f0eeb9026e6076, 0x7b07ce91e5906136}},
		{1, []uint64{0xd18f64476bda3b00, 0x31212fe8ca0f4f76, 0x097d6d88e9764c68}},
		{7, []uint64{0x235c4dbc6211f6ef, 0x87455696bdf18ec2, 0x71991449e78f9d5f}},
		{-1, []uint64{0x1b605fa70cb09bc5, 0x3e2f6ca22a93abb2, 0x6d5b2117ff902065}},
		{42, []uint64{0x955fe1e302e6da92, 0xe4c80ab34149f3a7, 0x58ebc9d998c36980}},
		// The one seed whose mixed state is zero falls back to a fixed
		// nonzero state instead of emitting zeros forever.
		{6025931680311770791, []uint64{0x7f6c280beaa8e3e7}},
	}
	for _, c := range cases {
		x := New(c.seed)
		for i, want := range c.want {
			if got := x.Next(); got != want {
				t.Fatalf("seed %d draw %d = %#x, want %#x", c.seed, i, got, want)
			}
		}
	}
}

func TestDrawRanges(t *testing.T) {
	x := New(3)
	for i := 0; i < 1000; i++ {
		if v := x.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		if f := x.Float01(); f < 0 || f >= 1 {
			t.Fatalf("Float01() = %v", f)
		}
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "non-positive bound") {
			t.Fatalf("Intn(0) panic = %q", r)
		}
	}()
	x.Intn(0)
}
