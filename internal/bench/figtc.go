package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/perfprof"
	"repro/internal/semiring"
)

// Fig7 reproduces Figure 7: for a grid of (mask degree, input degree)
// Erdős–Rényi instances, report which one-phase algorithm is fastest. The
// paper sweeps dimensions 2^12..2^22; the dims argument picks the subset
// (log2 sizes). Expected shape (§8.1): Inner wins the sparse-mask edge,
// Heap/HeapDot win the sparse-input edge, MSA/Hash win the comparable
// middle (MSA on smaller, Hash on larger matrices).
func Fig7(cfg Config, dims []int) []*Table {
	degMs := []int{1, 4, 16, 64, 256, 1024}
	degABs := []int{1, 4, 16, 64, 128}
	if cfg.Quick {
		degMs = []int{1, 16, 256}
		degABs = []int{1, 16, 128}
	}
	algs := []core.Algorithm{core.Inner, core.Hash, core.MSA, core.MCA, core.Heap, core.HeapDot}
	var tables []*Table
	for _, lg := range dims {
		n := matrix.Index(1) << lg
		t := &Table{
			Title: fmt.Sprintf("Fig 7: best 1P scheme, ER dimension 2^%d", lg),
			Notes: []string{"rows: degree of A and B; columns: degree of M; cell: fastest scheme"},
		}
		t.Header = append([]string{"degAB\\degM"}, intsToStrings(degMs)...)
		seed := cfg.Seed * 1000
		for _, dAB := range degABs {
			row := []string{fmt.Sprintf("%d", dAB)}
			for _, dM := range degMs {
				if float64(dM) > float64(n) || float64(dAB) > float64(n) {
					row = append(row, "-")
					continue
				}
				seed++
				a := grgen.ErdosRenyi(n, float64(dAB), seed)
				b := grgen.ErdosRenyi(n, float64(dAB), seed+7777)
				mask := grgen.ErdosRenyi(n, float64(dM), seed+9999).Pattern()
				bcsc := matrix.ToCSC(b)
				bestName, bestT := "", -1.0
				for _, alg := range algs {
					sec := minTime(cfg.reps(), func() (time.Duration, error) {
						t0 := time.Now()
						var err error
						if alg == core.Inner {
							_, err = core.MaskedDotCSC(core.OnePhase, mask, a, bcsc, semiring.Arithmetic(), cfg.Options())
						} else {
							_, err = core.MaskedSpGEMM(core.Variant{Alg: alg, Phase: core.OnePhase}, mask, a, b, semiring.Arithmetic(), cfg.Options())
						}
						return time.Since(t0), err
					})
					if sec > 0 && (bestT < 0 || sec < bestT) {
						bestT, bestName = sec, alg.String()
					}
				}
				row = append(row, bestName)
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables
}

// tcProfile times triangle counting over the corpus for the given engines
// (subject to cfg.Engine) and returns a performance profile.
func tcProfile(cfg Config, engines []apps.Engine) (*perfprof.Profile, error) {
	engines = overrideEngines(cfg, engines)
	corpus := Corpus(cfg)
	series := make([]perfprof.Series, len(engines))
	for ei := range engines {
		series[ei].Scheme = engines[ei].Name
		series[ei].Times = make([]float64, len(corpus))
	}
	for ci, g := range corpus {
		if cfg.Explain {
			l := matrix.PermuteTril(g.Graph, matrix.DegreeDescPerm(g.Graph))
			maybeExplain(cfg, "TC "+g.Name, l.Pattern(), l.Pattern(), l.Pattern())
		}
		for ei, eng := range engines {
			series[ei].Times[ci] = minTime(cfg.reps(), func() (time.Duration, error) {
				r, err := apps.TriangleCount(g.Graph, eng)
				return r.MaskedTime, err
			})
		}
	}
	return perfprof.Compute(series, perfprof.DefaultTaus())
}

// Fig8 reproduces Figure 8: the triangle-counting performance profile of
// all 12 proposed variants over the graph corpus. Expected shape: MSA-1P
// best, then MCA-1P; 1P beats 2P per algorithm; heap-based schemes worst.
func Fig8(cfg Config) (*Table, error) {
	ses := cfg.Session()
	var engines []apps.Engine
	for _, v := range core.AllVariants() {
		engines = append(engines, ses.EngineVariant(v))
	}
	p, err := tcProfile(cfg, engines)
	if err != nil {
		return nil, err
	}
	return profileTable("Fig 8: Triangle Counting performance profile (our 12 variants)",
		[]string{"paper: MSA-1P wins ~65% of cases, MCA-1P second, 1P > 2P"}, p), nil
}

// Fig9 reproduces Figure 9: our three best TC schemes against the
// SuiteSparse-style baselines. Expected: our schemes dominate SS:SAXPY and
// SS:DOT on almost all cases.
func Fig9(cfg Config) (*Table, error) {
	ses := cfg.Session()
	engines := []apps.Engine{
		ses.EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase}),
		ses.EngineVariant(core.Variant{Alg: core.Hash, Phase: core.OnePhase}),
		ses.EngineVariant(core.Variant{Alg: core.MCA, Phase: core.OnePhase}),
		ses.EngineSSSaxpy(),
		ses.EngineSSDot(),
	}
	p, err := tcProfile(cfg, engines)
	if err != nil {
		return nil, err
	}
	return profileTable("Fig 9: Triangle Counting, ours vs SS:GB-style baselines",
		[]string{"paper: all our algorithms outperform SS:GB in almost all cases"}, p), nil
}

// tcScaleEngines is the scheme set of the Fig. 10 GFLOPS plot.
func tcScaleEngines(ses *apps.Session) []apps.Engine {
	return []apps.Engine{
		ses.EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase}),
		ses.EngineVariant(core.Variant{Alg: core.Hash, Phase: core.OnePhase}),
		ses.EngineVariant(core.Variant{Alg: core.MCA, Phase: core.OnePhase}),
		ses.EngineVariant(core.Variant{Alg: core.Inner, Phase: core.OnePhase}),
		ses.EngineSSSaxpy(),
		ses.EngineSSDot(),
	}
}

// Fig10 reproduces Figure 10: triangle-counting GFLOPS as R-MAT scale
// grows (paper: 8–20, edge factor 16). Expected: MSA-1P highest; SS:SAXPY
// closes the gap as inputs grow; SS schemes poor at small scales.
func Fig10(cfg Config) *Table {
	engines := overrideEngines(cfg, tcScaleEngines(cfg.Session()))
	t := &Table{
		Title: "Fig 10: Triangle Counting GFLOPS vs R-MAT scale",
		Notes: []string{"GFLOPS = 2*flops(L·L)/masked_time", "paper: MSA-1P highest, SS:SAXPY approaches at large scale"},
	}
	t.Header = []string{"scale"}
	for _, e := range engines {
		t.Header = append(t.Header, e.Name)
	}
	lo := 8
	if cfg.Quick {
		lo = 8
	}
	for scale := lo; scale <= cfg.MaxScale; scale++ {
		g := grgen.RMAT(scale, 16, cfg.Seed+uint64(scale))
		row := []string{fmt.Sprintf("%d", scale)}
		for _, eng := range engines {
			var gf float64
			sec := minTime(cfg.reps(), func() (time.Duration, error) {
				r, err := apps.TriangleCount(g, eng)
				if err == nil {
					gf = r.GFLOPS()
				}
				return r.MaskedTime, err
			})
			if sec < 0 {
				row = append(row, "err")
			} else {
				row = append(row, fmt.Sprintf("%.3f", gf))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig11 reproduces Figure 11: triangle-counting strong scaling over thread
// counts on one R-MAT graph (paper: scale 20; here cfg.MaxScale). On a
// single-core host every column is ~equal; the table still verifies the
// scheduler introduces no slowdown.
func Fig11(cfg Config) *Table {
	scale := cfg.MaxScale
	g := grgen.RMAT(scale, 16, cfg.Seed+42)
	ses := cfg.Session()                                 // one session for the sweep: retargets share its plan cache
	engines := overrideEngines(cfg, tcScaleEngines(ses)) // threads retargeted per measurement below
	t := &Table{
		Title: fmt.Sprintf("Fig 11: Triangle Counting strong scaling, R-MAT scale %d", scale),
		Notes: []string{"GFLOPS per thread count", "paper: all algorithms scale well to 32/68 threads"},
	}
	t.Header = []string{"threads"}
	for _, e := range engines {
		t.Header = append(t.Header, e.Name)
	}
	for _, threads := range threadSweep() {
		row := []string{fmt.Sprintf("%d", threads)}
		for _, base := range engines {
			eng := retargetEngine(ses, base, threads)
			var gf float64
			sec := minTime(cfg.reps(), func() (time.Duration, error) {
				r, err := apps.TriangleCount(g, eng)
				if err == nil {
					gf = r.GFLOPS()
				}
				return r.MaskedTime, err
			})
			if sec < 0 {
				row = append(row, "err")
			} else {
				row = append(row, fmt.Sprintf("%.3f", gf))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// threadSweep returns 1,2,4,... up to GOMAXPROCS (always including it).
func threadSweep() []int {
	max := parallelMax()
	var out []int
	for p := 1; p < max; p *= 2 {
		out = append(out, p)
	}
	out = append(out, max)
	return out
}

func parallelMax() int {
	return maxInt(1, runtime.GOMAXPROCS(0))
}

// retargetEngine rebuilds a scheme with a specific thread count, keeping
// the given session's context and plan cache.
func retargetEngine(ses *apps.Session, e apps.Engine, threads int) apps.Engine {
	o := ses.Opt
	o.Threads = threads
	re, err := ses.WithOptions(o).EngineByName(e.Name)
	if err != nil {
		return e
	}
	return re
}

func intsToStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
