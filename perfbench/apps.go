package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/planner"
	"repro/internal/semiring"
	"repro/masked"
)

// refVariant pins the oracle's sessions to one variant; the planner's
// choices must reproduce its outputs bit for bit.
var refVariant = masked.Variant{Alg: masked.MSA, Phase: masked.TwoPhase}

// Seeds of the different inputs of one run are derived from the run seed.
func subSeed(seed uint64, k uint64) uint64 { return seed*1_000_003 + k }

// appEnv is the part the in-process application workloads share: the
// measured session, its input graphs and the traced-window counters.
type appEnv struct {
	sess   *masked.Session
	short  bool
	graphs []*masked.Matrix
	s0, s1 masked.Stats
	ops    int
}

// newAppEnv generates the n graphs an application workload cycles
// through, one call per graph in turn. Single R-MAT graphs differ in cost
// by up to a third from seed to seed (k-truss round counts, BC depths,
// stream frontiers), so the more a workload's cost varies by graph, the
// more graphs it takes; phase.groups combines them.
func newAppEnv(short bool, n int, gen func(k int) *masked.Matrix) appEnv {
	e := appEnv{sess: masked.NewSession(), short: short}
	if short {
		n = 2
	}
	for k := 0; k < n; k++ {
		e.graphs = append(e.graphs, gen(k))
	}
	return e
}

func (e *appEnv) close() {}

// loop runs a closed loop over the graphs in turn and, on traced windows,
// snapshots the session counters around it.
func (e *appEnv) loop(ctx context.Context, d time.Duration, tr *tracer, ids *atomic.Int64, op func(id int64, g int) (lat, check time.Duration, err error)) (*phase, error) {
	if tr != nil {
		e.s0 = e.sess.Stats()
	}
	ph, err := closedLoop(ctx, d, len(e.graphs), ids, op)
	if err == nil && tr != nil {
		e.s1 = e.sess.Stats()
		e.ops = ph.attempted
	}
	return ph, err
}

// layers merges the session counters of the traced window with a replay
// of the workload's masked products.
func (e *appEnv) layers(ctx context.Context, tr *tracer, ids *atomic.Int64, ps []product) (map[string]float64, error) {
	out := sessionLayer(e.s0, e.s1, e.ops)
	rp, _, err := replayProducts(ctx, e.sess, ps, replayReps(e.short), tr, ids)
	if err != nil {
		return nil, err
	}
	mergeInto(out, rp)
	return out, nil
}

func (e *appEnv) describe(name string, extra map[string]any) []map[string]any {
	var out []map[string]any
	for k, g := range e.graphs {
		d := map[string]any{"name": fmt.Sprintf("%s-%d", name, k), "n": g.NRows, "nnz": g.NNZ(), "flops": masked.Flops(g, g)}
		for key, v := range extra {
			d[key] = v
		}
		out = append(out, d)
	}
	return out
}

// --- tc: Session.TriangleCount on R-MAT s14 d16 -------------------------

type tcEnv struct {
	appEnv
	want         []int64
	maskedMs     []float64
	prepMs       []float64
	scale, edgeF int
}

func buildTC(ctx context.Context, seed uint64, short bool) (env, error) {
	scale, edgeF := 14, 16
	if short {
		scale, edgeF = 9, 8
	}
	e := &tcEnv{scale: scale, edgeF: edgeF, appEnv: newAppEnv(short, 4, func(k int) *masked.Matrix {
		return masked.RMAT(scale, edgeF, subSeed(seed, uint64(10+k)))
	})}
	if _, err := e.sess.TriangleCount(ctx, e.graphs[0]); err != nil { // warm pass
		return nil, err
	}
	return e, nil
}

func (e *tcEnv) reference(context.Context) error {
	for _, g := range e.graphs {
		e.want = append(e.want, apps.TriangleCountExact(g))
	}
	return nil
}

func (e *tcEnv) corrupt() { e.want[0]++ }

func (e *tcEnv) inputs() []map[string]any {
	return e.describe(fmt.Sprintf("rmat-s%d-d%d", e.scale, e.edgeF), nil)
}

func (e *tcEnv) run(ctx context.Context, d time.Duration, tr *tracer, ids *atomic.Int64) (*phase, error) {
	e.maskedMs, e.prepMs = nil, nil
	return e.loop(ctx, d, tr, ids, func(id int64, k int) (time.Duration, time.Duration, error) {
		t0 := time.Now()
		res, err := e.sess.TriangleCount(ctx, e.graphs[k])
		lat := time.Since(t0)
		tr.add(id, "", "apps", "apps.tc", t0, lat)
		if err != nil {
			return lat, 0, err
		}
		if res.Triangles != e.want[k] {
			return lat, 0, mismatch("tc graph %d: %d triangles, oracle %d", k, res.Triangles, e.want[k])
		}
		if tr != nil {
			e.maskedMs = append(e.maskedMs, ms(res.MaskedTime))
			e.prepMs = append(e.prepMs, ms(res.TotalTime-res.MaskedTime))
		}
		return lat, 0, nil
	})
}

func (e *tcEnv) layers(ctx context.Context, tr *tracer, ids *atomic.Int64) (map[string]float64, error) {
	// The triangle-count product L .* (L·L) on the degree-relabeled graph,
	// as TriangleCount forms it.
	g := e.graphs[0]
	l := matrix.Tril(matrix.Permute(g, matrix.DegreeDescPerm(g)))
	p := product{name: "tc", m: l.Pattern(), a: l, b: l, semiring: "plus-pair"}
	out, err := e.appEnv.layers(ctx, tr, ids, []product{p})
	if err != nil {
		return nil, err
	}
	out["apps.tc_masked_ms"] = median(e.maskedMs)
	out["apps.tc_prep_ms"] = median(e.prepMs)
	return out, nil
}

// --- ktruss: Session.KTruss, k=5, on R-MAT s12 d16 -----------------------

const trussK = 5

type ktrussEnv struct {
	appEnv
	want                  []digest
	wantRes               []masked.KTrussResult
	rounds, maskMs, othMs []float64
	scale                 int
}

func buildKTruss(ctx context.Context, seed uint64, short bool) (env, error) {
	scale := 12
	if short {
		scale = 8
	}
	e := &ktrussEnv{scale: scale, appEnv: newAppEnv(short, 12, func(k int) *masked.Matrix {
		return masked.RMAT(scale, 16, subSeed(seed, uint64(100+k)))
	})}
	if _, _, err := e.sess.KTruss(ctx, e.graphs[0], trussK); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *ktrussEnv) reference(ctx context.Context) error {
	ref := masked.NewSession(masked.WithVariant(refVariant))
	for _, g := range e.graphs {
		truss, res, err := ref.KTruss(ctx, g, trussK)
		if err != nil {
			return err
		}
		e.want = append(e.want, digestOf(truss))
		e.wantRes = append(e.wantRes, res)
	}
	return nil
}

func (e *ktrussEnv) corrupt() {
	e.want[0][0]++
	e.wantRes[0].Edges++
}

func (e *ktrussEnv) inputs() []map[string]any {
	return e.describe(fmt.Sprintf("rmat-s%d-d16", e.scale), map[string]any{"k": trussK})
}

func (e *ktrussEnv) run(ctx context.Context, d time.Duration, tr *tracer, ids *atomic.Int64) (*phase, error) {
	e.rounds, e.maskMs, e.othMs = nil, nil, nil
	return e.loop(ctx, d, tr, ids, func(id int64, k int) (time.Duration, time.Duration, error) {
		t0 := time.Now()
		truss, res, err := e.sess.KTruss(ctx, e.graphs[k], trussK)
		lat := time.Since(t0)
		tr.add(id, "", "apps", "apps.ktruss", t0, lat)
		if err != nil {
			return lat, 0, err
		}
		t1 := time.Now()
		want := e.wantRes[k]
		if res.Edges != want.Edges || res.Iterations != want.Iterations || digestOf(truss) != e.want[k] {
			return lat, 0, mismatch("ktruss graph %d: %d edges in %d rounds differ from the pinned-variant reference (%d in %d)",
				k, res.Edges, res.Iterations, want.Edges, want.Iterations)
		}
		if tr != nil {
			e.rounds = append(e.rounds, float64(res.Iterations))
			e.maskMs = append(e.maskMs, ms(res.MaskedTime))
			e.othMs = append(e.othMs, ms(res.TotalTime-res.MaskedTime))
		}
		return lat, time.Since(t1), nil
	})
}

func (e *ktrussEnv) layers(ctx context.Context, tr *tracer, ids *atomic.Int64) (map[string]float64, error) {
	// The first support product S = A .* (A·A), the largest of the rounds.
	g := e.graphs[0]
	p := product{name: "ktruss-support", m: g.Pattern(), a: g, b: g, semiring: "plus-pair"}
	out, err := e.appEnv.layers(ctx, tr, ids, []product{p})
	if err != nil {
		return nil, err
	}
	out["apps.ktruss_rounds"] = median(e.rounds)
	out["apps.ktruss_masked_ms"] = median(e.maskMs)
	out["apps.ktruss_other_ms"] = median(e.othMs)
	return out, nil
}

// --- bc: Session.BC with a batch of 64 sources on R-MAT s12 d8 ------------

const bcSources = 64

type bcEnv struct {
	appEnv
	sources           [][]masked.Index
	want              [][]float64
	fwd, bwd, otherMs []float64
	scale             int
}

func buildBC(ctx context.Context, seed uint64, short bool) (env, error) {
	scale := 12
	if short {
		scale = 8
	}
	e := &bcEnv{scale: scale, appEnv: newAppEnv(short, 4, func(k int) *masked.Matrix {
		return masked.RMAT(scale, 8, subSeed(seed, uint64(30+k)))
	})}
	// Distinct sources with at least one edge, drawn from the seed.
	rng := rand.New(rand.NewSource(int64(subSeed(seed, 40))))
	for _, g := range e.graphs {
		var src []masked.Index
		for _, v := range rng.Perm(int(g.NRows)) {
			if i := masked.Index(v); g.RowPtr[i+1] > g.RowPtr[i] {
				src = append(src, i)
				if len(src) == bcSources {
					break
				}
			}
		}
		e.sources = append(e.sources, src)
	}
	if _, err := e.sess.BC(ctx, e.graphs[0], e.sources[0]); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *bcEnv) reference(ctx context.Context) error {
	ref := masked.NewSession(masked.WithVariant(refVariant))
	for k, g := range e.graphs {
		res, err := ref.BC(ctx, g, e.sources[k])
		if err != nil {
			return err
		}
		e.want = append(e.want, res.Scores)
	}
	return nil
}

func (e *bcEnv) corrupt() {
	w := append([]float64(nil), e.want[0]...)
	w[len(w)/2]++
	e.want[0] = w
}

func (e *bcEnv) inputs() []map[string]any {
	return e.describe(fmt.Sprintf("rmat-s%d-d8", e.scale), map[string]any{"sources": bcSources})
}

func (e *bcEnv) run(ctx context.Context, d time.Duration, tr *tracer, ids *atomic.Int64) (*phase, error) {
	e.fwd, e.bwd, e.otherMs = nil, nil, nil
	return e.loop(ctx, d, tr, ids, func(id int64, k int) (time.Duration, time.Duration, error) {
		t0 := time.Now()
		res, err := e.sess.BC(ctx, e.graphs[k], e.sources[k])
		lat := time.Since(t0)
		tr.add(id, "", "apps", "apps.bc", t0, lat)
		if err != nil {
			return lat, 0, err
		}
		t1 := time.Now()
		want := e.want[k]
		if len(res.Scores) != len(want) {
			return lat, 0, mismatch("bc graph %d: %d scores, oracle %d", k, len(res.Scores), len(want))
		}
		for i, v := range res.Scores {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				return lat, 0, mismatch("bc graph %d: score %d is %v, pinned-variant reference %v", k, i, v, want[i])
			}
		}
		if tr != nil {
			e.fwd = append(e.fwd, ms(res.ForwardTime))
			e.bwd = append(e.bwd, ms(res.BackwardTime))
			e.otherMs = append(e.otherMs, ms(res.TotalTime-res.ForwardTime-res.BackwardTime))
		}
		return lat, time.Since(t1), nil
	})
}

func (e *bcEnv) layers(ctx context.Context, tr *tracer, ids *atomic.Int64) (map[string]float64, error) {
	// BC's first forward step: the source frontier F times A, masked by
	// the complement of the visited set (F's own pattern).
	g, src := e.graphs[0], e.sources[0]
	coo := &masked.COO{NRows: masked.Index(len(src)), NCols: g.NRows}
	for s, v := range src {
		coo.Row = append(coo.Row, masked.Index(s))
		coo.Col = append(coo.Col, v)
		coo.Val = append(coo.Val, 1)
	}
	f := masked.FromCOO(coo)
	p := product{name: "bc-forward", m: f.Pattern(), a: f, b: g, complement: true}
	out, err := e.appEnv.layers(ctx, tr, ids, []product{p})
	if err != nil {
		return nil, err
	}
	out["apps.bc_forward_ms"] = median(e.fwd)
	out["apps.bc_backward_ms"] = median(e.bwd)
	out["apps.bc_other_ms"] = median(e.otherMs)
	return out, nil
}

// --- stream: Session.Update batches on the TC product of R-MAT s13 d8 -----

const (
	streamBatches = 20 // batches per round; each round starts from the base graph
	streamCheck   = 5  // every streamCheck-th batch (and the last) is checked
)

// streamInput is one graph of the stream workload with its batch sequence
// and the state of its current round.
type streamInput struct {
	l       *masked.Matrix    // strictly lower triangle of the base graph
	batches [][]masked.Update // one round's batch sequence
	want    []digest          // from-scratch products at the checkpoints

	overlay     *masked.DeltaMatrix
	prod        *masked.DeltaProduct
	base        *masked.Matrix // overlay base, to count compactions
	batch       int            // next batch of the round
	compactions float64        // in the current round
}

// streamEnv keeps one delta product per graph and applies their batches
// in turn, so consecutive updates on the session alternate between graphs.
type streamEnv struct {
	appEnv
	in          []*streamInput
	compactions []float64 // per completed round, traced windows only
	scale       int
}

var plusPair = []masked.Op{masked.WithAccumulate(masked.PlusPair())}

func buildStream(ctx context.Context, seed uint64, short bool) (env, error) {
	scale := 13
	if short {
		scale = 9
	}
	e := &streamEnv{scale: scale, appEnv: newAppEnv(short, 8, func(k int) *masked.Matrix {
		l := matrix.Tril(masked.RMAT(scale, 8, subSeed(seed, uint64(50+k))))
		for i := range l.Val {
			l.Val[i] = 1
		}
		return l
	})}
	rng := rand.New(rand.NewSource(int64(subSeed(seed, 60))))
	for _, l := range e.graphs {
		// Batches of ~0.25% of L's edges, a third of them deletions;
		// strictly lower-triangular entries keep L's shape.
		in := &streamInput{l: l}
		n := int(l.NRows)
		for b := 0; b < streamBatches; b++ {
			batch := make([]masked.Update, max(8, l.NNZ()/400))
			for k := range batch {
				i := masked.Index(rng.Intn(n-1)) + 1
				j := masked.Index(rng.Intn(int(i)))
				batch[k] = masked.Update{Row: i, Col: j, Val: 1, Delete: rng.Intn(3) == 0}
			}
			in.batches = append(in.batches, batch)
		}
		e.in = append(e.in, in)
	}
	// Warm pass: one round on the first graph.
	in := e.in[0]
	if err := e.startRound(ctx, in); err != nil {
		return nil, err
	}
	for _, batch := range in.batches {
		if _, err := e.sess.Update(ctx, in.prod, batch); err != nil {
			return nil, err
		}
	}
	in.batch = 0
	return e, nil
}

// startRound restarts a graph's stream from its base graph: a fresh
// overlay and product, whose full initial product is computed here (it is
// not an update).
func (e *streamEnv) startRound(ctx context.Context, in *streamInput) error {
	d, err := masked.NewDeltaMatrix(in.l)
	if err != nil {
		return err
	}
	in.overlay, in.base, in.compactions = d, d.Base(), 0
	in.prod = e.sess.NewDeltaProduct(d, d, d, plusPair...)
	_, err = e.sess.MultiplyDelta(ctx, in.prod)
	return err
}

func (e *streamEnv) reference(ctx context.Context) error {
	ref := masked.NewSession(masked.WithVariant(refVariant))
	for _, in := range e.in {
		d, err := masked.NewDeltaMatrix(in.l)
		if err != nil {
			return err
		}
		for b, batch := range in.batches {
			if _, err := d.ApplyBatch(batch); err != nil {
				return err
			}
			if checkpoint(b) {
				cur := d.Current()
				c, err := ref.Multiply(ctx, cur.Pattern(), cur, cur, plusPair...)
				if err != nil {
					return err
				}
				in.want = append(in.want, digestOf(c))
			}
		}
	}
	return nil
}

func checkpoint(b int) bool { return (b+1)%streamCheck == 0 || b == streamBatches-1 }

func (e *streamEnv) corrupt() { e.in[0].want[0][0]++ }

func (e *streamEnv) inputs() []map[string]any {
	return e.describe(fmt.Sprintf("tril-rmat-s%d-d8", e.scale), map[string]any{
		"batch_updates": len(e.in[0].batches[0]), "batches_per_round": streamBatches,
	})
}

func (e *streamEnv) run(ctx context.Context, d time.Duration, tr *tracer, ids *atomic.Int64) (*phase, error) {
	e.compactions = nil
	for _, in := range e.in {
		in.batch = 0 // every window starts new rounds
	}
	return e.loop(ctx, d, tr, ids, func(id int64, k int) (time.Duration, time.Duration, error) {
		in := e.in[k]
		var excluded time.Duration
		if in.batch == 0 {
			t := time.Now()
			if err := e.startRound(ctx, in); err != nil {
				return 0, 0, err
			}
			excluded += time.Since(t)
		}
		t0 := time.Now()
		got, err := e.sess.Update(ctx, in.prod, in.batches[in.batch])
		lat := time.Since(t0)
		tr.add(id, "", "masked", "masked.update", t0, lat)
		if err != nil {
			return lat, excluded, err
		}
		t1 := time.Now()
		if b := in.overlay.Base(); b != in.base {
			in.base = b
			in.compactions++
		}
		if checkpoint(in.batch) && digestOf(got) != in.want[in.batch/streamCheck] {
			return lat, excluded, mismatch("stream graph %d batch %d differs from the from-scratch product", k, in.batch)
		}
		in.batch++
		if in.batch == streamBatches {
			if tr != nil {
				e.compactions = append(e.compactions, in.compactions)
			}
			in.batch = 0
		}
		return lat, excluded + time.Since(t1), nil
	})
}

// layers adds to the session counters a replay of the batch sequences
// through core.DeltaProduct, timing Apply, the multiply callback and the
// rest of Refresh (frontier scan, extraction, splice) separately.
func (e *streamEnv) layers(ctx context.Context, tr *tracer, ids *atomic.Int64) (map[string]float64, error) {
	l := e.in[0].l
	full := product{name: "stream-full", m: l.Pattern(), a: l, b: l, semiring: "plus-pair"}
	out, err := e.appEnv.layers(ctx, tr, ids, []product{full})
	if err != nil {
		return nil, err
	}
	opt := core.Options{Threads: runtime.GOMAXPROCS(0)}
	mult := func(m *matrix.Pattern, a, b *matrix.CSR[float64]) (*matrix.CSR[float64], error) {
		pl := planner.Analyze(m, a.Pattern(), b.Pattern(), opt)
		return planner.Execute(pl, m, a, b, semiring.PlusPairF(), opt, nil)
	}
	var apply, kernel, other, rows []float64
	for k, in := range e.in {
		d, err := masked.NewDeltaMatrix(in.l)
		if err != nil {
			return nil, err
		}
		p := core.NewDeltaProduct(d, d, d)
		if _, _, err := p.Refresh(mult); err != nil {
			return nil, err
		}
		for b, batch := range in.batches {
			id := ids.Add(1)
			t0 := time.Now()
			if err := p.Apply(core.DeltaAll, batch); err != nil {
				return nil, err
			}
			da := time.Since(t0)
			tr.add(id, "", "delta", "delta.apply", t0, da)
			var dk time.Duration
			t1 := time.Now()
			c, frontier, err := p.Refresh(func(m *matrix.Pattern, a, b *matrix.CSR[float64]) (*matrix.CSR[float64], error) {
				tk := time.Now()
				c, err := mult(m, a, b)
				dk = time.Since(tk)
				tr.add(id, "delta.refresh", "core", "delta.kernel", tk, dk)
				return c, err
			})
			dr := time.Since(t1)
			tr.add(id, "", "delta", "delta.refresh", t1, dr)
			if err != nil {
				return nil, err
			}
			if checkpoint(b) && digestOf(c) != in.want[b/streamCheck] {
				return nil, mismatch("stream replay: graph %d batch %d", k, b)
			}
			apply = append(apply, us(da))
			kernel = append(kernel, us(dk))
			other = append(other, us(dr-dk))
			rows = append(rows, float64(len(frontier)))
		}
	}
	out["delta.apply_us"] = median(apply)
	out["delta.kernel_us"] = median(kernel)
	out["delta.refresh_other_us"] = median(other)
	out["delta.frontier_rows"] = median(rows)
	out["delta.compactions"] = mean(e.compactions)
	return out, nil
}
