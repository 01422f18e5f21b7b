package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/masked"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// digest is a SHA-256 over an output's shape and CSR arrays, bit for bit.
// The oracle keeps digests instead of whole reference outputs, so its
// references add little to the process's resident memory.
type digest [sha256.Size]byte

func digestOf(c *masked.Matrix) digest {
	h := sha256.New()
	h.Write(bytesOf([]masked.Index{c.NRows, c.NCols}))
	h.Write(bytesOf(c.RowPtr))
	h.Write(bytesOf(c.Col))
	h.Write(bytesOf(c.Val))
	var d digest
	h.Sum(d[:0])
	return d
}

// bytesOf views a slice's memory as bytes. The digests it feeds are only
// compared within one process, so the host's byte order does not matter.
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// closedLoop issues op back to back until d has elapsed, cycling through
// inputs input indices (each at least twice). op returns the latency of
// the operation's public call and the time it then spent checking the
// oracle, which the throughput excludes. A mismatch aborts; any other
// error counts as a failed op.
func closedLoop(ctx context.Context, d time.Duration, inputs int, ids *atomic.Int64, op func(id int64, in int) (lat, check time.Duration, err error)) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	due := start
	var checks time.Duration
	for ph.attempted < 2*inputs || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id := ids.Add(1)
		ph.late = append(ph.late, ms(time.Since(due)))
		in := ph.attempted % inputs
		lat, chk, err := op(id, in)
		ph.attempted++
		checks += chk
		switch {
		case errors.Is(err, errMismatch):
			return nil, err
		case err != nil:
			ph.failed++
		default:
			ph.ok(lat, in)
		}
		due = time.Now()
	}
	ph.busy = time.Since(start) - checks
	return ph, nil
}

// product is one masked multiply a workload performs; the traced run
// replays it through single layers to split its time.
type product struct {
	name       string
	m          *masked.Pattern
	a, b       *masked.Matrix
	semiring   string // wire semiring name; "" is arithmetic
	complement bool
	want       *digest // reference output, nil when not kept
}

func (p *product) opts() []masked.Op {
	var opts []masked.Op
	if p.semiring != "" {
		sr, err := masked.SemiringByName(p.semiring)
		if err != nil {
			panic(err) // catalog names are fixed in this package
		}
		opts = append(opts, masked.WithAccumulate(sr))
	}
	if p.complement {
		opts = append(opts, masked.WithComplement())
	}
	return opts
}

// describe is the input metadata of one product.
func (p product) describe() map[string]any {
	return map[string]any{
		"name":       p.name,
		"rows":       p.m.NRows,
		"nnz_m":      p.m.NNZ(),
		"nnz_a":      p.a.NNZ(),
		"nnz_b":      p.b.NNZ(),
		"flops":      masked.Flops(p.a, p.b),
		"complement": p.complement,
	}
}

// replayReps is how often each product is replayed per layer.
func replayReps(short bool) int {
	if short {
		return 2
	}
	return 7
}

// replayProducts replays each product on a warmed session: the planner's
// analysis on the miss path (planner.Analyze, no cache) and a
// TryMultiply, whose returned plan carries the kernels' busy time and the
// model's prediction. Values are medians per product, averaged over the
// products. The second result is each product's median execute time in µs.
func replayProducts(ctx context.Context, sess *masked.Session, ps []product, reps int, tr *tracer, ids *atomic.Int64) (map[string]float64, []float64, error) {
	out := map[string]float64{}
	execUs := make([]float64, len(ps))
	for i := range ps {
		p := &ps[i]
		var analyze, exec, busy, pred, workers []float64
		var flops, outNNZ float64
		for r := 0; r < reps; r++ {
			id := ids.Add(1)
			t0 := time.Now()
			planner.Analyze(p.m, p.a.Pattern(), p.b.Pattern(), core.Options{Threads: runtime.GOMAXPROCS(0), Complement: p.complement})
			dt := time.Since(t0)
			tr.add(id, "", "planner", "planner.analyze", t0, dt)
			analyze = append(analyze, us(dt))

			t0 = time.Now()
			res := sess.TryMultiply(ctx, p.m, p.a, p.b, p.opts()...)
			dt = time.Since(t0)
			tr.add(id, "", "masked", "masked.execute", t0, dt)
			if res.Err != nil {
				return nil, nil, fmt.Errorf("replay %s: %w", p.name, res.Err)
			}
			if p.want != nil && digestOf(res.C) != *p.want {
				return nil, nil, mismatch("replay of %s", p.name)
			}
			exec = append(exec, us(dt))
			workers = append(workers, float64(res.Workers))
			outNNZ = float64(res.C.NNZ())
			if pl := res.Plan; pl != nil {
				flops = float64(pl.Stats.Flops)
				if pl.Exec != nil {
					busy = append(busy, float64(pl.Exec.ActualNs)/1e3)
					pred = append(pred, ratio(float64(pl.Exec.ActualNs), pl.PredictedNs))
				}
			}
		}
		execUs[i] = median(exec)
		out["planner.analyze_us"] += median(analyze)
		out["masked.execute_us"] += execUs[i]
		out["masked.workers_mean"] += mean(workers)
		out["core.kernel_busy_us"] += median(busy)
		out["planner.pred_ratio"] += median(pred)
		out["core.flops"] += flops
		out["core.out_nnz"] += outNNZ
		out["core.gflops"] += ratio(2*flops, execUs[i]*1e3)
	}
	for k := range out {
		out[k] /= float64(len(ps))
	}
	return out, execUs, nil
}

// sessionLayer derives the masked, planner and core counters of a window
// of ops operations from two Session.Stats snapshots.
func sessionLayer(a, b masked.Stats, ops int) map[string]float64 {
	n := math.Max(float64(ops), 1)
	hits := float64(b.Cache.Hits - a.Cache.Hits)
	misses := float64(b.Cache.Misses - a.Cache.Misses)
	return map[string]float64{
		"planner.cache_hit_ratio": ratio(hits, hits+misses),
		"planner.replans_per_1k":  float64(b.Cache.Replans-a.Cache.Replans) * 1000 / n,
		"core.pool_misses":        float64(b.DriverPool.Misses - a.DriverPool.Misses),
		"masked.arbiter_steals":   float64(b.Arbiter.Steals - a.Arbiter.Steals),
		"masked.arbiter_topups":   float64(b.Arbiter.TopUps - a.Arbiter.TopUps),
		"masked.panics":           float64(b.Panics - a.Panics),
	}
}

func mergeInto(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}
