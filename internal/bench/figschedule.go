package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/semiring"
)

// scheduleWorkerGrid is the worker counts the study sweeps: the
// equal-vs-cost question only exists at ≥4 workers (one worker has no
// imbalance to balance), and equal-row chunking degrades as the worker
// count grows relative to the chunk count.
var scheduleWorkerGrid = []int{4, 8, 16}

// ScheduleStudy contrasts equal-row chunking (the pre-PR-4 scheduler, fixed
// grain) against cost-balanced equal-flops spans on the triangle-counting
// product C = L .* (L·L), where power-law rows make per-chunk costs skew by
// orders of magnitude. The inputs cover the two regimes that matter: a
// frontier-sized skewed graph (few chunks per worker — BFS/BC/k-truss
// sweeps live here) and full-sized skewed and flat graphs. For each input ×
// worker count it reports:
//
//   - imbalance: the deterministic load-balance model — spans are assigned
//     greedily to the least-loaded of the workers in claim order (the
//     textbook model of dynamic self-scheduling), and the figure is the
//     busiest worker's cost over the ideal total/p. 1.00 is perfect; the
//     equal-row column degrades when a grain-64 chunk carrying hub rows
//     approaches a worker's fair share.
//   - time_s: best-of-reps wall time of the full multiply on a warmed
//     session (on single-core hosts the columns coincide — the model column
//     is the portable signal there).
//   - allocs_op: average heap allocations per multiply on the warmed
//     session, and drv_miss: driver-pool misses per multiply (0 means the
//     drivers allocated nothing — PR 4's pooled-buffer guarantee).
//
// Every case lands in cfg.Recorder for BENCH_PR4.json.
func ScheduleStudy(cfg Config) (*Table, error) {
	t := &Table{
		Title: "Schedule study: equal-row chunks vs cost-balanced spans (TC product)",
		Notes: []string{
			fmt.Sprintf("host GOMAXPROCS=%d; worker counts are goroutine budgets (the balance model is host-independent)", runtime.GOMAXPROCS(0)),
			"imbalance: busiest worker cost / ideal under greedy least-loaded assignment of the claim-order spans; 1.00 = perfect",
			"allocs_op / drv_miss on a warmed session: drv_miss 0 = the drivers took all scratch from the pools",
		},
		Header: []string{"input", "workers", "sched", "spans", "imbalance", "time_s", "allocs_op", "drv_miss"},
	}
	scale, deg := 12, 16
	if cfg.Quick {
		scale, deg = 9, 8
	}
	graphs := []NamedGraph{
		// The frontier-sized regime: two scales down, where equal-row has
		// only a few grain-64 chunks per worker and hub rows dominate them.
		{Name: fmt.Sprintf("rmat-s%d-d%d", scale-2, deg), Graph: grgen.RMAT(scale-2, deg, cfg.Seed+1)},
		{Name: fmt.Sprintf("rmat-s%d-d%d", scale, deg), Graph: grgen.RMAT(scale, deg, cfg.Seed+1)},
		{Name: fmt.Sprintf("er-s%d-d%d", scale, deg), Graph: grgen.ErdosRenyiSym(1<<scale, float64(deg), cfg.Seed+2)},
	}
	sr := semiring.PlusPairF()
	for _, g := range graphs {
		l := matrix.PermuteTril(g.Graph, matrix.DegreeDescPerm(g.Graph))
		m := l.Pattern()
		costs := core.ComputeRowCosts(m, l.Pattern(), l.Pattern(), cfg.Threads)
		if costs == nil {
			continue
		}
		for _, workers := range scheduleWorkerGrid {
			for _, sched := range []core.Sched{core.SchedEqualRow, core.SchedCost} {
				spans, imbalance := scheduleBalance(sched, workers, costs)
				opt := cfg.Options()
				opt.Threads = workers
				opt.Sched = sched
				opt.RowCosts = costs
				ws := core.NewWorkspaces()
				opt.Workspaces = ws
				v := core.Variant{Alg: core.MSA, Phase: core.OnePhase}
				if _, err := core.MaskedSpGEMM(v, m, l, l, sr, opt); err != nil { // warm the pools
					return nil, err
				}
				_, missBefore := ws.DriverPoolStats()
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				reps := cfg.reps()
				sec := minTime(reps, func() (time.Duration, error) {
					t0 := time.Now()
					_, err := core.MaskedSpGEMM(v, m, l, l, sr, opt)
					return time.Since(t0), err
				})
				runtime.ReadMemStats(&ms1)
				allocsPerOp := float64(ms1.Mallocs-ms0.Mallocs) / float64(reps)
				_, missAfter := ws.DriverPoolStats()
				missPerOp := float64(missAfter-missBefore) / float64(reps)
				timeCell := "err"
				var nsPerOp int64 = -1
				if sec >= 0 {
					timeCell = fmt.Sprintf("%.4f", sec)
					nsPerOp = int64(sec * 1e9)
				}
				t.Rows = append(t.Rows, []string{
					g.Name, fmt.Sprintf("%d", workers), sched.String(), fmt.Sprintf("%d", spans),
					fmt.Sprintf("%.3f", imbalance), timeCell,
					fmt.Sprintf("%.1f", allocsPerOp), fmt.Sprintf("%.1f", missPerOp),
				})
				cfg.Recorder.Add(Record{
					Study:       "schedule",
					Case:        fmt.Sprintf("%s/w%d/%s", g.Name, workers, sched),
					NsPerOp:     nsPerOp,
					AllocsPerOp: allocsPerOp,
					Metrics: map[string]float64{
						"workers":            float64(workers),
						"spans":              float64(spans),
						"imbalance":          imbalance,
						"driver_pool_misses": missPerOp,
					},
				})
			}
		}
	}
	return t, nil
}

// scheduleBalance models the load balance of one schedule: the claim-order
// spans (equal-row grain-64 chunks, or the cost scheduler's tapered spans)
// are dealt to the least-loaded of p workers, and the result is the busiest
// worker's summed cost relative to the ideal total/p — a deterministic,
// timing-free proxy for the parallel makespan.
func scheduleBalance(sched core.Sched, p int, costs *core.RowCosts) (spans int, imbalance float64) {
	prefix := costs.Prefix
	n := len(prefix) - 1
	var spanCosts []int64
	if sched == core.SchedCost {
		for _, s := range parallel.CostSpans(n, p, prefix) {
			spanCosts = append(spanCosts, prefix[s[1]]-prefix[s[0]])
		}
	} else {
		for lo := 0; lo < n; lo += parallel.DefaultGrain {
			hi := lo + parallel.DefaultGrain
			if hi > n {
				hi = n
			}
			spanCosts = append(spanCosts, prefix[hi]-prefix[lo])
		}
	}
	loads := make([]int64, p)
	for _, c := range spanCosts {
		min := 0
		for w := 1; w < p; w++ {
			if loads[w] < loads[min] {
				min = w
			}
		}
		loads[min] += c
	}
	var maxLoad, total int64
	for _, l := range loads {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if total == 0 {
		return len(spanCosts), 1
	}
	ideal := float64(total) / float64(p)
	return len(spanCosts), float64(maxLoad) / ideal
}
