package workloads

import (
	"math"
	"testing"

	"repro/internal/prng"
)

func TestDCTCoeffOrthonormal(t *testing.T) {
	// C * C^T = I for the DCT-II matrix.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			var acc float64
			for k := 0; k < 8; k++ {
				acc += float64(dctCoeff[i*8+k]) * float64(dctCoeff[j*8+k])
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(acc-want) > 1e-5 {
				t.Fatalf("C*C^T[%d][%d] = %v, want %v", i, j, acc, want)
			}
		}
	}
}

func TestDCTConstantBlock(t *testing.T) {
	// A constant block has all energy in the DC coefficient: DC = 8 * v.
	in := make([]float32, 64)
	for i := range in {
		in[i] = 3
	}
	var out [64]float32
	dct8x8Block(in, 8, out[:])
	if math.Abs(float64(out[0])-24) > 1e-4 {
		t.Fatalf("DC = %v, want 24", out[0])
	}
	for i := 1; i < 64; i++ {
		if math.Abs(float64(out[i])) > 1e-4 {
			t.Fatalf("AC coefficient %d = %v, want 0", i, out[i])
		}
	}
}

func TestDCTParseval(t *testing.T) {
	// Orthonormal transform preserves energy.
	rng := prng.New(3)
	in := make([]float32, 64)
	var ein float64
	for i := range in {
		in[i] = float32(rng.Float01()*2 - 1)
		ein += float64(in[i]) * float64(in[i])
	}
	var out [64]float32
	dct8x8Block(in, 8, out[:])
	var eout float64
	for _, v := range out {
		eout += float64(v) * float64(v)
	}
	if math.Abs(ein-eout)/ein > 1e-4 {
		t.Fatalf("energy in %v != out %v", ein, eout)
	}
}

func TestConvPreservesConstant(t *testing.T) {
	// The blur kernel is normalized: a constant image stays constant.
	dim := 16
	in := make([]float32, dim*dim)
	for i := range in {
		in[i] = 7
	}
	out := convRef(in, dim)
	for i, v := range out {
		if math.Abs(float64(v)-7) > 1e-4 {
			t.Fatalf("pixel %d = %v, want 7", i, v)
		}
	}
}

func TestConvImpulseSumsToOne(t *testing.T) {
	dim := 16
	in := make([]float32, dim*dim)
	in[8*dim+8] = 1
	out := convRef(in, dim)
	var sum float64
	for _, v := range out {
		if v < 0 {
			t.Fatalf("negative response %v from non-negative kernel", v)
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("impulse response sums to %v, want 1", sum)
	}
}

func TestMMIdentity(t *testing.T) {
	n := 16
	a := make([]float32, n*n)
	id := make([]float32, n*n)
	rng := prng.New(5)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
		for j := 0; j < n; j++ {
			a[i*n+j] = float32(rng.Float01())
		}
	}
	got := mmRef(a, id, n)
	if err := approxEqual32("MM*I", got, a, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestMandelbrotKnownPoints(t *testing.T) {
	if mbEscape(0, 0, 64) != 64 {
		t.Error("origin must not escape")
	}
	if mbEscape(2, 2, 64) != 1 {
		t.Error("(2,2) must escape after one iteration")
	}
	if it := mbEscape(-0.75, 0.05, 64); it == 64 || it < 3 {
		t.Errorf("boundary point escaped after %d iterations; expected a mid-range count", it)
	}
}

func TestFilterBankImpulse(t *testing.T) {
	// An impulse through stage 1 reproduces the H taps.
	n := 64
	sig := make([]float32, n)
	sig[0] = 1
	h := make([]float32, fbTaps)
	for k := range h {
		h[k] = float32(k + 1)
	}
	out := make([]float32, n)
	fbStage(sig, h, out)
	for k := 0; k < fbTaps; k++ {
		if out[k] != h[k] {
			t.Fatalf("impulse response[%d] = %v, want %v", k, out[k], h[k])
		}
	}
	for k := fbTaps; k < n; k++ {
		if out[k] != 0 {
			t.Fatalf("tail[%d] = %v, want 0", k, out[k])
		}
	}
}

func TestBeamformerWeights(t *testing.T) {
	n := 32
	sig := make([]float32, n)
	for i := range sig {
		sig[i] = float32(i)
	}
	wRe := []float32{2}
	wIm := []float32{0}
	out := bfRef(sig, wRe, wIm, n)
	for i := range sig {
		if out[i] != 2*sig[i] {
			t.Fatalf("beam output[%d] = %v, want %v", i, out[i], 2*sig[i])
		}
	}
}

func TestSLUDFactorsMatrix(t *testing.T) {
	// Validate the full blocked algorithm: factor a dense 2x2-block matrix
	// with the block ops and compare L*U against the original.
	const nb = 2
	n := nb * sludBS
	rng := prng.New(11)
	orig := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			orig[i*n+j] = rng.Float01()
		}
		orig[i*n+i] += float64(n) // diagonal dominance: stable without pivoting
	}
	// Copy into blocks.
	blk := make([][][]float64, nb)
	for bi := 0; bi < nb; bi++ {
		blk[bi] = make([][]float64, nb)
		for bj := 0; bj < nb; bj++ {
			b := make([]float64, sludBS*sludBS)
			for y := 0; y < sludBS; y++ {
				for x := 0; x < sludBS; x++ {
					b[y*sludBS+x] = orig[(bi*sludBS+y)*n+bj*sludBS+x]
				}
			}
			blk[bi][bj] = b
		}
	}
	// Dense pattern plan.
	present := make([][]bool, nb)
	for i := range present {
		present[i] = make([]bool, nb)
		for j := range present[i] {
			present[i][j] = true
		}
	}
	// The dense right-looking elimination order, with the block coordinates
	// the plan leaves out: sludPlan must emit its op kinds in this order.
	type step struct {
		kind    sludOpKind
		i, j, k int
	}
	var steps []step
	for k := 0; k < nb; k++ {
		steps = append(steps, step{sludLU0, k, k, k})
		for j := k + 1; j < nb; j++ {
			steps = append(steps, step{sludFWD, k, j, k})
		}
		for i := k + 1; i < nb; i++ {
			steps = append(steps, step{sludBDIV, i, k, k})
		}
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				steps = append(steps, step{sludBMOD, i, j, k})
			}
		}
	}
	plan := sludPlan(nb, present)
	if len(plan) != len(steps) {
		t.Fatalf("sludPlan emitted %d ops on a dense %dx%d pattern, want %d", len(plan), nb, nb, len(steps))
	}
	for s, op := range steps {
		if plan[s] != op.kind {
			t.Fatalf("sludPlan op %d = %v, want %v", s, plan[s], op.kind)
		}
		switch op.kind {
		case sludLU0:
			sludLU0Ref(blk[op.k][op.k])
		case sludFWD:
			sludFWDRef(blk[op.k][op.k], blk[op.k][op.j])
		case sludBDIV:
			sludBDIVRef(blk[op.k][op.k], blk[op.i][op.k])
		case sludBMOD:
			sludBMODRef(blk[op.i][op.k], blk[op.k][op.j], blk[op.i][op.j])
		}
	}
	// Rebuild the packed LU and check L*U == orig.
	lu := make([]float64, n*n)
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			for y := 0; y < sludBS; y++ {
				for x := 0; x < sludBS; x++ {
					lu[(bi*sludBS+y)*n+bj*sludBS+x] = blk[bi][bj][y*sludBS+x]
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			kmax := i
			if j < i {
				kmax = j
			}
			for k := 0; k <= kmax; k++ {
				l := lu[i*n+k]
				if k == i {
					l = 1
				}
				acc += l * lu[k*n+j]
			}
			// When j < i the diagonal of L is not reached; handle directly:
			if math.Abs(acc-orig[i*n+j])/math.Max(1, math.Abs(orig[i*n+j])) > 1e-8 {
				t.Fatalf("LU[%d][%d]: got %v, want %v", i, j, acc, orig[i*n+j])
			}
		}
	}
}

func TestSLUDPlanHasFillIn(t *testing.T) {
	rng := prng.New(1)
	nb := 16
	plan := sludPlan(nb, sludPattern(nb, 0.35, rng))
	kinds := map[sludOpKind]int{}
	for _, kind := range plan {
		kinds[kind]++
	}
	if kinds[sludLU0] != nb {
		t.Fatalf("lu0 count = %d, want %d", kinds[sludLU0], nb)
	}
	for _, k := range []sludOpKind{sludFWD, sludBDIV, sludBMOD} {
		if kinds[k] == 0 {
			t.Fatalf("no %v tasks generated", k)
		}
	}
	// bmod dominates, as in BOTS.
	if kinds[sludBMOD] < kinds[sludFWD] {
		t.Fatalf("bmod (%d) should dominate fwd (%d)", kinds[sludBMOD], kinds[sludFWD])
	}
}

func TestSLUDTaskCountScales(t *testing.T) {
	small := makeSLUD(Options{Tasks: 500, Seed: 1})
	big := makeSLUD(Options{Tasks: 5000, Seed: 1})
	if len(small) != 500 {
		t.Fatalf("truncation failed: %d tasks", len(small))
	}
	if len(big) <= len(small) {
		t.Fatalf("plan did not grow: %d vs %d", len(big), len(small))
	}
}
