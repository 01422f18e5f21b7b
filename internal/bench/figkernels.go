package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// KernelsStudy measures what the monomorphized operator loops buy over the
// func-field fallback, per named semiring, on the regime where operators
// actually execute: the triangle-counting product C = L .* (L·L) on a flat,
// triangle-dense graph (Watts-Strogatz with low rewiring — the standard
// high-clustering model; k-truss peeling iterates the same product). On
// that input most mask probes hit, so every flop reaches Add/Mul and the
// call-vs-inline difference is the row cost. Miss-dominated inputs (sparse
// ER masks) spend their time in probe code both paths share, and the ratio
// shrinks toward 1 — see PERFORMANCE.md.
//
// For each case the study runs both paths on the same warmed workspaces,
// asserts the outputs are bit-identical (the loops_gen.go contract: the
// specialized loops replicate the generic operation order exactly), and
// reports best-of-reps times plus the speedup. Threads is pinned to 1:
// operator inlining is a per-row serial effect and the single-thread ratio
// is the host-independent signal. Every case lands in cfg.Recorder for
// BENCH_PR6.json, plus a final geomean record.
func KernelsStudy(cfg Config) (*Table, error) {
	t := &Table{
		Title: "Kernels study: monomorphized (inlined) vs funcptr operator loops (TC product, triangle-dense)",
		Notes: []string{
			"input: Watts-Strogatz (low beta) lower triangle, mask = L's pattern — the mask-hit-dominated TC/k-truss regime",
			"threads pinned to 1: inlining is a per-row serial effect; the single-thread ratio is the portable signal",
			"bit-identity between both paths is asserted on every case before timing",
		},
		Header: []string{"semiring", "variant", "inlined_s", "funcptr_s", "speedup"},
	}
	scale, deg := 13, 32
	if cfg.Quick {
		scale, deg = 10, 16
	}
	g := grgen.WattsStrogatz(1<<scale, deg, 0.05, cfg.Seed)
	l := matrix.PermuteTril(g, matrix.DegreeDescPerm(g))
	m := l.Pattern()
	t.Notes = append(t.Notes, fmt.Sprintf("L: %d rows, %d nnz", l.NRows, l.NNZ()))

	li := matrix.MapValues(l, func(v float64) int64 { return int64(v) + 1 })
	lb := matrix.MapValues(l, func(v float64) bool { return true })

	msa1 := core.Variant{Alg: core.MSA, Phase: core.OnePhase}
	hash1 := core.Variant{Alg: core.Hash, Phase: core.OnePhase}
	mca1 := core.Variant{Alg: core.MCA, Phase: core.OnePhase}

	eqF := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	eqI := func(x, y int64) bool { return x == y }
	eqB := func(x, y bool) bool { return x == y }

	var speedups []float64
	addF := func(sr semiring.Semiring[float64], v core.Variant) error {
		s, err := kernelsCase(cfg, t, v, m, l, sr, eqF)
		speedups = append(speedups, s)
		return err
	}

	// Every float64 named semiring on the planner's main TC pick (MSA-1P),
	// then plus-pair-f64 across the other specialized accumulators so the
	// hash-probe and MCA loop families show up in the record.
	for _, sr := range []semiring.Semiring[float64]{
		semiring.Arithmetic(), semiring.PlusPairF(), semiring.MinPlus(),
		semiring.PlusSecond(), semiring.PlusFirst(), semiring.MaxTimes(),
	} {
		if err := addF(sr, msa1); err != nil {
			return nil, err
		}
	}
	if err := addF(semiring.PlusPairF(), hash1); err != nil {
		return nil, err
	}
	if err := addF(semiring.PlusPairF(), mca1); err != nil {
		return nil, err
	}
	for _, sr := range []semiring.Semiring[int64]{semiring.ArithmeticInt(), semiring.PlusPair()} {
		s, err := kernelsCase(cfg, t, msa1, m, li, sr, eqI)
		if err != nil {
			return nil, err
		}
		speedups = append(speedups, s)
	}
	s, err := kernelsCase(cfg, t, msa1, m, lb, semiring.Boolean(), eqB)
	if err != nil {
		return nil, err
	}
	speedups = append(speedups, s)

	geo := geomean(speedups)
	t.Rows = append(t.Rows, []string{"geomean", "", "", "", fmt.Sprintf("%.2fx", geo)})
	cfg.Recorder.Add(Record{
		Study:   "kernels",
		Case:    "geomean",
		NsPerOp: -1,
		Metrics: map[string]float64{"speedup_geomean": geo, "cases": float64(len(speedups))},
	})
	return t, nil
}

// kernelsCase times one semiring × variant with the named operator type
// (monomorphized loops) and with Ops stripped (funcptr fallback), after
// asserting both produce bit-identical output, and returns the speedup
// funcptr/inlined.
func kernelsCase[T any](cfg Config, t *Table, v core.Variant, m *matrix.Pattern, l *matrix.CSR[T], sr semiring.Semiring[T], eq func(T, T) bool) (float64, error) {
	fp := sr
	fp.Ops = nil
	opt := cfg.Options()
	opt.Threads = 1 // see study doc: single-thread ratio is the signal
	ws := core.NewWorkspaces()
	opt.Workspaces = ws

	// Warm the pools and check the loops_gen.go contract before timing.
	want, err := core.MaskedSpGEMM(v, m, l, l, fp, opt)
	if err != nil {
		return 0, fmt.Errorf("kernels %s/%s funcptr: %w", sr.Name, v.Name(), err)
	}
	got, err := core.MaskedSpGEMM(v, m, l, l, sr, opt)
	if err != nil {
		return 0, fmt.Errorf("kernels %s/%s inlined: %w", sr.Name, v.Name(), err)
	}
	if !matrix.Equal(got, want, eq) {
		return 0, fmt.Errorf("kernels %s/%s: inlined result not bit-identical to funcptr", sr.Name, v.Name())
	}

	reps := cfg.reps()
	secInl := minTime(reps, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := core.MaskedSpGEMM(v, m, l, l, sr, opt)
		return time.Since(t0), err
	})
	secFp := minTime(reps, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := core.MaskedSpGEMM(v, m, l, l, fp, opt)
		return time.Since(t0), err
	})
	if secInl < 0 || secFp < 0 {
		return 0, fmt.Errorf("kernels %s/%s: timing rep errored", sr.Name, v.Name())
	}
	speedup := secFp / secInl
	t.Rows = append(t.Rows, []string{
		sr.Name, v.Name(),
		fmt.Sprintf("%.4f", secInl), fmt.Sprintf("%.4f", secFp),
		fmt.Sprintf("%.2fx", speedup),
	})
	cfg.Recorder.Add(Record{
		Study:   "kernels",
		Case:    fmt.Sprintf("%s/%s", sr.Name, v.Name()),
		NsPerOp: int64(secInl * 1e9),
		Metrics: map[string]float64{
			"funcptr_ns": secFp * 1e9,
			"speedup":    speedup,
		},
	})
	return speedup, nil
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
