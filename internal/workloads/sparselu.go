package workloads

import "repro/internal/prng"

// Sparse LU Decomposition (SLUD), from the Barcelona OpenMP Task Suite: a
// blocked sparse LU factorization using the multifrontal pattern. The matrix
// is an NB x NB grid of BS x BS blocks with a sparse block population; every
// block operation (lu0, fwd, bdiv, bmod) is one narrow task with a 32x32
// block input (Table 3). The task count is *not* known statically — it
// depends on the sparsity pattern as elimination proceeds — which is why the
// paper could not implement SLUD on GeMTC or static fusion.

const sludBS = 32 // block edge (Table 3: "32 x 32 matrix" per task)

type sludOpKind int

const (
	sludLU0  sludOpKind = iota // factor diagonal block
	sludFWD                    // forward solve a row block
	sludBDIV                   // divide a column block
	sludBMOD                   // update trailing block: C -= A*B
)

func (k sludOpKind) String() string {
	return [...]string{"lu0", "fwd", "bdiv", "bmod"}[k]
}

// sludLU0Ref factors a BS x BS block in place (no pivoting, as in BOTS).
func sludLU0Ref(a []float64) {
	for k := 0; k < sludBS; k++ {
		for i := k + 1; i < sludBS; i++ {
			a[i*sludBS+k] /= a[k*sludBS+k]
			for j := k + 1; j < sludBS; j++ {
				a[i*sludBS+j] -= a[i*sludBS+k] * a[k*sludBS+j]
			}
		}
	}
}

// sludFWDRef solves L * X = B for a row block (L unit lower from diag).
func sludFWDRef(diag, b []float64) {
	for k := 0; k < sludBS; k++ {
		for i := k + 1; i < sludBS; i++ {
			l := diag[i*sludBS+k]
			for j := 0; j < sludBS; j++ {
				b[i*sludBS+j] -= l * b[k*sludBS+j]
			}
		}
	}
}

// sludBDIVRef solves X * U = B for a column block.
func sludBDIVRef(diag, b []float64) {
	for k := 0; k < sludBS; k++ {
		d := diag[k*sludBS+k]
		for i := 0; i < sludBS; i++ {
			b[i*sludBS+k] /= d
			for j := k + 1; j < sludBS; j++ {
				b[i*sludBS+j] -= b[i*sludBS+k] * diag[k*sludBS+j]
			}
		}
	}
}

// sludBMODRef computes C -= A * B.
func sludBMODRef(a, b, c []float64) {
	for i := 0; i < sludBS; i++ {
		for k := 0; k < sludBS; k++ {
			av := a[i*sludBS+k]
			if av == 0 {
				continue
			}
			for j := 0; j < sludBS; j++ {
				c[i*sludBS+j] -= av * b[k*sludBS+j]
			}
		}
	}
}

// sludOpUnits returns each op's work in block elements processed.
func sludOpUnits(kind sludOpKind) int {
	switch kind {
	case sludLU0:
		return sludBS * sludBS * sludBS / 3
	case sludFWD, sludBDIV:
		return sludBS * sludBS * sludBS / 2
	default:
		return sludBS * sludBS * sludBS
	}
}

// sludPlan generates the BOTS multifrontal task schedule for an NB x NB block
// matrix with the given sparsity pattern (true = block present). New blocks
// materialize as elimination proceeds (fill-in), so the op count is dynamic.
func sludPlan(nb int, present [][]bool) []sludOpKind {
	var ops []sludOpKind
	for k := 0; k < nb; k++ {
		ops = append(ops, sludLU0)
		for j := k + 1; j < nb; j++ {
			if present[k][j] {
				ops = append(ops, sludFWD)
			}
		}
		for i := k + 1; i < nb; i++ {
			if present[i][k] {
				ops = append(ops, sludBDIV)
			}
		}
		for i := k + 1; i < nb; i++ {
			if !present[i][k] {
				continue
			}
			for j := k + 1; j < nb; j++ {
				if !present[k][j] {
					continue
				}
				present[i][j] = true // fill-in
				ops = append(ops, sludBMOD)
			}
		}
	}
	return ops
}

// sludPattern builds the BOTS-style sparsity pattern.
func sludPattern(nb int, density float64, rng *prng.Xorshift) [][]bool {
	p := make([][]bool, nb)
	for i := range p {
		p[i] = make([]bool, nb)
		for j := range p[i] {
			p[i][j] = i == j || rng.Float01() < density
		}
	}
	return p
}

// SparseLU returns the SLUD benchmark. Options.Tasks caps the op count (the
// plan is truncated or the matrix grown to approximate it); with the paper's
// configuration (~100 blocks, ~35% density) the plan reaches the 273K tasks
// of Table 3.
func SparseLU() Benchmark {
	return Benchmark{
		Name: "SLUD",
		Make: makeSLUD,
	}
}

func makeSLUD(opt Options) []TaskDef {
	rng := prng.New(opt.Seed)
	threads := opt.threads(128)

	// Grow the block matrix until the schedule covers the requested count.
	nb := 8
	var plan []sludOpKind
	for {
		plan = sludPlan(nb, sludPattern(nb, 0.35, prng.New(opt.Seed+int64(nb))))
		if len(plan) >= opt.Tasks || nb >= 128 {
			break
		}
		nb += 8
	}
	if len(plan) > opt.Tasks {
		plan = plan[:opt.Tasks]
	}

	tasks := make([]TaskDef, len(plan))
	for i, kind := range plan {
		units := sludOpUnits(kind)

		// Verify mode: run each block op on private random data against the
		// reference (the arithmetic is validated; the fill-in schedule itself
		// is validated by TestSLUDFactorsMatrix).
		var a, b, cblk, want []float64
		if opt.Verify {
			mk := func() []float64 {
				m := make([]float64, sludBS*sludBS)
				for p := range m {
					m[p] = rng.Float01() + 0.5
				}
				for d := 0; d < sludBS; d++ {
					m[d*sludBS+d] += float64(sludBS) // diagonally dominant
				}
				return m
			}
			a, b = mk(), mk()
			cblk = mk()
			want = make([]float64, sludBS*sludBS)
			switch kind {
			case sludLU0:
				copy(want, cblk)
				sludLU0Ref(want)
			case sludFWD:
				copy(want, cblk)
				sludFWDRef(a, want)
			case sludBDIV:
				copy(want, cblk)
				sludBDIVRef(a, want)
			case sludBMOD:
				copy(want, cblk)
				sludBMODRef(a, b, want)
			}
		}

		t := TaskDef{
			Name:      "SLUD-" + kind.String(),
			Threads:   opt.threads(threads),
			Blocks:    1,
			ArgBytes:  72,
			Regs:      17,
			InBytes:   sludBS * sludBS * 4, // fp32 transfer format
			OutBytes:  sludBS * sludBS * 4,
			CPUCycles: float64(units) * sludCPUCyclesPerUnit,
		}
		t.Kernel = func(c DeviceCtx) {
			if cblk != nil && c.BlockIdx() == 0 && c.WarpInBlock() == 0 {
				// Block ops have sequential dependencies across k-steps, so
				// the real math runs warp-0-side; cost is charged to all.
				switch kind {
				case sludLU0:
					sludLU0Ref(cblk)
				case sludFWD:
					sludFWDRef(a, cblk)
				case sludBDIV:
					sludBDIVRef(a, cblk)
				case sludBMOD:
					sludBMODRef(a, b, cblk)
				}
			}
			chargeWarp(c, units, sludCyclesPerUnit, sludBS*sludBS*8, sludBS*sludBS*8, 3)
		}
		if opt.Verify {
			t.Check = func() error { return approxEqual64("SLUD-"+kind.String(), cblk, want, 1e-9) }
		}
		tasks[i] = t
	}
	return tasks
}
