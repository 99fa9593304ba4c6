package serve

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// These are the regression tests for the generator-parameter fix: every
// arrival generator must reject non-positive (or non-finite) rates and
// durations with a descriptive error from Validate, and Times must panic
// with the same message instead of looping forever in a rejection sampler
// or silently emitting a degenerate schedule.

func TestGeneratorValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		g    Generator
		want string // substring the error must carry
	}{
		{FixedRate{Rate: 0}, "fixed-rate arrival rate"},
		{FixedRate{Rate: -5}, "fixed-rate arrival rate"},
		{FixedRate{Rate: math.Inf(1)}, "fixed-rate arrival rate"},
		{Poisson{Rate: 0, Seed: 1}, "poisson arrival rate"},
		{Poisson{Rate: math.NaN(), Seed: 1}, "poisson arrival rate"},
		{Bursty{PeakRate: 0, Burst: 4, Gap: 10}, "bursty peak rate"},
		{Bursty{PeakRate: 1e3, Burst: 0, Gap: 10}, "burst size"},
		{Bursty{PeakRate: 1e3, Burst: 4, Gap: -1}, "inter-burst gap"},
		{Bursty{PeakRate: 1e3, Burst: 4, Gap: math.Inf(1)}, "inter-burst gap"},
		{Diurnal{MeanRate: 0, Swing: 0.5, Period: 1e6, Seed: 1}, "diurnal mean rate"},
		{Diurnal{MeanRate: 1e3, Swing: -0.1, Period: 1e6, Seed: 1}, "swing"},
		{Diurnal{MeanRate: 1e3, Swing: 1.5, Period: 1e6, Seed: 1}, "swing"},
		{Diurnal{MeanRate: 1e3, Swing: 0.5, Period: 0, Seed: 1}, "diurnal period"},
		{Diurnal{MeanRate: 1e3, Swing: 0.5, Period: -1e6, Seed: 1}, "diurnal period"},
		{FlashCrowd{BaseRate: 0, SpikeRate: 1e4, SpikeAt: 0, SpikeDur: 1e6}, "base rate"},
		{FlashCrowd{BaseRate: 1e3, SpikeRate: -1, SpikeAt: 0, SpikeDur: 1e6}, "spike rate"},
		{FlashCrowd{BaseRate: 1e3, SpikeRate: 1e4, SpikeAt: -5, SpikeDur: 1e6}, "onset"},
		{FlashCrowd{BaseRate: 1e3, SpikeRate: 1e4, SpikeAt: 0, SpikeDur: 0}, "spike duration"},
		// Gaps past 2^53 cycles: Times used to return +Inf instants, and
		// Diurnal's thinning, once its sine phase overflowed to NaN (as it
		// also does for a sub-cycle period, or an infinite peak rate),
		// never accepted a candidate.
		{FixedRate{Rate: 1e-300}, "2^53"},
		{Poisson{Rate: 1e-300, Seed: 1}, "2^53"},
		{Bursty{PeakRate: 1e-300, Burst: 4, Gap: 10}, "2^53"},
		{Bursty{PeakRate: 1e3, Burst: 1, Gap: 1e308}, "inter-burst gap"},
		{Diurnal{MeanRate: 1e-300, Swing: 0.5, Period: 1e9, Seed: 1}, "2^53"},
		{Diurnal{MeanRate: math.MaxFloat64, Swing: 1, Period: 1e9, Seed: 1}, "diurnal peak rate"},
		{Diurnal{MeanRate: 1e3, Swing: 0.5, Period: 1e-305, Seed: 1}, "diurnal period"},
		{FlashCrowd{BaseRate: 1e-300, SpikeRate: 1e4, SpikeAt: 0, SpikeDur: 1e6}, "2^53"},
		// Thinning draws about max/min rate candidates per arrival, so a
		// spike (or a dip) past 1e3x the other rate used to run for hours.
		{FlashCrowd{BaseRate: 1e3, SpikeRate: 1e7, SpikeAt: 0, SpikeDur: 1e6}, "rate ratio"},
		{FlashCrowd{BaseRate: 1e9, SpikeRate: 1e3, SpikeAt: 1e6, SpikeDur: 1e6}, "rate ratio"},
		{Trace{At: []sim.Time{5, 3}}, "decrease"},
		{Trace{At: []sim.Time{-1, 3}}, "finite non-negative"},
	}
	for _, c := range cases {
		err := c.g.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted bad parameters", c.g.Name())
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.g.Name(), err, c.want)
		}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: Times did not panic on invalid parameters", c.g.Name())
					return
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, c.want) {
					t.Errorf("%s: Times panic %v does not carry the Validate message %q", c.g.Name(), r, c.want)
				}
			}()
			c.g.Times(4)
		}()
	}
}

func TestGeneratorValidateAcceptsGoodParams(t *testing.T) {
	good := []Generator{
		FixedRate{Rate: 16e3},
		Poisson{Rate: 16e3, Seed: 1},
		Bursty{PeakRate: 64e3, Burst: 8, Gap: 1e6},
		Diurnal{MeanRate: 16e3, Swing: 0.6, Period: 50e6, Seed: 1},
		FlashCrowd{BaseRate: 8e3, SpikeRate: 64e3, SpikeAt: 1e6, SpikeDur: 4e6, Seed: 1},
		Trace{At: []sim.Time{1, 2, 3, 4}},
	}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: Validate rejected good parameters: %v", g.Name(), err)
			continue
		}
		n := 4
		ts := g.Times(n)
		if len(ts) != n {
			t.Errorf("%s: Times(%d) returned %d arrivals", g.Name(), n, len(ts))
		}
		for i := 1; i < len(ts); i++ {
			if ts[i] < ts[i-1] {
				t.Errorf("%s: arrivals decrease at %d: %v < %v", g.Name(), i, ts[i], ts[i-1])
			}
		}
	}
}

// TestDiurnalRateVaries checks the curve actually shapes traffic: over the
// first period, the half-day around the sine peak must collect visibly more
// arrivals than the half-day around the trough.
func TestDiurnalRateVaries(t *testing.T) {
	g := Diurnal{MeanRate: 50e3, Swing: 0.8, Period: 20e6, Seed: 7}
	ts := g.Times(2000)
	var peak, trough int
	for _, at := range ts {
		phase := math.Mod(at, g.Period) / g.Period
		switch {
		case phase < 0.5:
			peak++ // sin > 0: above-mean half of the day
		default:
			trough++
		}
	}
	if peak <= trough*2 {
		t.Fatalf("diurnal curve too flat: %d arrivals in the peak half vs %d in the trough half", peak, trough)
	}
}

// TestFlashCrowdSpikeDensity checks the spike window's arrival density is a
// multiple of the background's.
func TestFlashCrowdSpikeDensity(t *testing.T) {
	g := FlashCrowd{BaseRate: 4e3, SpikeRate: 64e3, SpikeAt: 10e6, SpikeDur: 10e6, Seed: 3}
	ts := g.Times(1500)
	inSpike := 0
	for _, at := range ts {
		if at >= g.SpikeAt && at < g.SpikeAt+g.SpikeDur {
			inSpike++
		}
	}
	// 10ms at 64k/s expects ~640 arrivals; the same window at the base rate
	// would expect ~40.
	if inSpike < 300 {
		t.Fatalf("flash crowd too weak: %d arrivals inside the spike window", inSpike)
	}
}

// TestThinnedDeterministic pins that the NHPP shapes are pure values like
// every other generator.
func TestThinnedDeterministic(t *testing.T) {
	gens := []Generator{
		Diurnal{MeanRate: 20e3, Swing: 0.5, Period: 30e6, Seed: 11},
		FlashCrowd{BaseRate: 5e3, SpikeRate: 40e3, SpikeAt: 2e6, SpikeDur: 8e6, Seed: 11},
	}
	for _, g := range gens {
		a := g.Times(512)
		b := g.Times(512)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d differs across identical calls: %v != %v", g.Name(), i, a[i], b[i])
			}
		}
	}
}

// FuzzGenerators: every generator that passes Validate returns n finite,
// nondecreasing instants, and one that fails it panics in Times. kind picks
// the generator; rate is its (base, mean or peak) rate, and a and b its
// other parameters.
func FuzzGenerators(f *testing.F) {
	f.Add(uint8(0), 1e-300, 0.0, 0.0, int64(1), uint8(3))
	f.Add(uint8(1), 1e-300, 0.0, 0.0, int64(1), uint8(3))
	f.Add(uint8(2), 1e-300, 4.0, 10.0, int64(1), uint8(3))
	f.Add(uint8(3), 1e-300, 0.5, 1e9, int64(1), uint8(3))
	f.Add(uint8(4), 1e-300, 1e-299, 1e6, int64(1), uint8(3))
	f.Add(uint8(1), 16e3, 0.0, 0.0, int64(7), uint8(64))
	f.Add(uint8(2), 64e3, 8.0, 1e6, int64(7), uint8(64))
	f.Add(uint8(3), 16e3, 0.6, 50e6, int64(7), uint8(64))
	f.Add(uint8(4), 8e3, 64e3, 4e6, int64(7), uint8(64))
	f.Fuzz(func(t *testing.T, kind uint8, rate, a, b float64, seed int64, n uint8) {
		var g Generator
		switch kind % 5 {
		case 0:
			g = FixedRate{Rate: rate}
		case 1:
			g = Poisson{Rate: rate, Seed: seed}
		case 2:
			g = Bursty{PeakRate: rate, Burst: int(a), Gap: b}
		case 3:
			g = Diurnal{MeanRate: rate, Swing: a, Period: b, Seed: seed}
		default:
			g = FlashCrowd{BaseRate: rate, SpikeRate: a, SpikeAt: b, SpikeDur: b + 1, Seed: seed}
		}
		n %= 65
		if g.Validate() != nil {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Times accepted parameters Validate rejects", g.Name())
				}
			}()
			g.Times(int(n))
			return
		}
		ts := g.Times(int(n))
		if len(ts) != int(n) {
			t.Fatalf("%s: Times(%d) returned %d instants", g.Name(), n, len(ts))
		}
		for i, at := range ts {
			if math.IsNaN(at) || math.IsInf(at, 0) || at < 0 || (i > 0 && at < ts[i-1]) {
				t.Fatalf("%s: instant %d is %v after %v", g.Name(), i, at, ts[max(i-1, 0)])
			}
		}
	})
}
