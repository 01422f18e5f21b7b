package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/matrix"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/masked"
)

const (
	wireContentType = "application/x-mspgemm-wire"
	opHeader        = "X-Perfbench-Op" // links the handler's span to its request
	wireSmallRate   = 400              // wire_small offered load, requests/s
)

// wireEnv is a live localhost server fed by the benchmark's own generator.
type wireEnv struct {
	open  bool // open loop at wireSmallRate; closed loop otherwise
	conns int  // HTTP connections (= concurrent clients when closed)
	short bool
	cat   []product // requests cycle through it in order

	sv   *server.Server
	hs   *http.Server
	done chan error
	url  string
	hc   *http.Client

	tracer atomic.Pointer[tracer] // set while a traced window runs

	// traced-window bookkeeping
	mu        sync.Mutex
	opEntry   map[int64]int
	coalesced int
	responses int
	workers   []float64
	reqBytes  []float64
	resBytes  []float64
	m0, m1    server.MetricsSnapshot
	s0, s1    masked.Stats
	windowOps int
}

// wireSample is what one request produced.
type wireSample struct {
	entry     int
	c         *masked.Matrix // the decoded product
	coalesced bool
	workers   int
	reqBytes  int
	resBytes  int
}

func buildWireSmall(ctx context.Context, seed uint64, short bool) (env, error) {
	tc := func(name string, s, d int, k uint64) product {
		l := matrix.Tril(masked.RMAT(s, d, subSeed(seed, k)))
		return product{name: name, m: l.Pattern(), a: l, b: l, semiring: "plus-pair"}
	}
	sq := func(name string, n masked.Index, d float64, k uint64, compl bool) product {
		g := masked.ErdosRenyi(n, d, subSeed(seed, k))
		return product{name: name, m: g.Pattern(), a: g, b: g, complement: compl}
	}
	cat := []product{
		tc("tc-rmat-s8-d8", 8, 8, 11),
		sq("sq-er-256-d8", 256, 8, 12, false),
		sq("comp-er-128-d4", 128, 4, 13, true),
	}
	return startWire(ctx, short, true, cat)
}

func buildWireLarge(ctx context.Context, seed uint64, short bool) (env, error) {
	scale := 12
	if short {
		scale = 8
	}
	var cat []product
	for k := uint64(0); k < 4; k++ {
		l := matrix.Tril(masked.RMAT(scale, 8, subSeed(seed, 20+k)))
		cat = append(cat, product{name: fmt.Sprintf("tc-rmat-s%d-d8-%d", scale, k), m: l.Pattern(), a: l, b: l, semiring: "plus-pair"})
	}
	return startWire(ctx, short, false, cat)
}

// startWire starts the server and client and warms them with one request
// per catalog entry, so interned operands and cached plans are resident.
func startWire(ctx context.Context, short, open bool, cat []product) (*wireEnv, error) {
	conns := runtime.GOMAXPROCS(0)
	e := &wireEnv{open: open, conns: conns, short: short, cat: cat}
	// mspgemm-server's defaults: GOMAXPROCS threads and admission slots,
	// and the per-host calibrated cost model (-calibrate auto), cached in
	// the directory MSPGEMM_CALIBRATION_DIR names.
	e.sv = server.New(server.Config{Calibration: masked.CalibrationAuto})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.url = "http://" + ln.Addr().String() + "/v1/multiply"
	e.hs = &http.Server{Handler: e}
	e.done = make(chan error, 1)
	go func() { e.done <- e.hs.Serve(ln) }()
	e.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	for k := range cat {
		if _, err := e.send(ctx, 0, k, nil); err != nil {
			e.close()
			return nil, fmt.Errorf("warm %s: %w", cat[k].name, err)
		}
	}
	return e, nil
}

// ServeHTTP wraps the server's public handler, timing it on traced windows.
func (e *wireEnv) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := e.tracer.Load()
	if tr == nil {
		e.sv.Handler().ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	e.sv.Handler().ServeHTTP(w, r)
	op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	tr.add(op, "server.roundtrip", "server", "server.handler", t0, time.Since(t0))
}

func (e *wireEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	<-e.done
	e.hc.CloseIdleConnections()
}

func (e *wireEnv) reference(ctx context.Context) error {
	ref := masked.NewSession(masked.WithVariant(refVariant))
	for k := range e.cat {
		p := &e.cat[k]
		c, err := ref.Multiply(ctx, p.m, p.a, p.b, p.opts()...)
		if err != nil {
			return fmt.Errorf("reference %s: %w", p.name, err)
		}
		d := digestOf(c)
		p.want = &d
	}
	return nil
}

func (e *wireEnv) corrupt() { e.cat[0].want[0]++ }

// check compares a response with the in-process reference.
func (e *wireEnv) check(k int, c *masked.Matrix) error {
	if want := e.cat[k].want; want != nil && digestOf(c) != *want {
		return mismatch("%s: response differs from the in-process reference", e.cat[k].name)
	}
	return nil
}

func (e *wireEnv) request(k int) *wire.MultiplyReq {
	p := &e.cat[k]
	var flags uint16
	if p.complement {
		flags |= wire.FlagComplement
	}
	return &wire.MultiplyReq{Flags: flags, Semiring: p.semiring, M: p.m, A: p.a, B: p.b}
}

func (e *wireEnv) inputs() []map[string]any {
	var out []map[string]any
	for k := range e.cat {
		d := e.cat[k].describe()
		d["body_bytes"] = len(wire.WithChecksum(e.request(k).Encode(nil)))
		out = append(out, d)
	}
	return out
}

// send posts one multiply of catalog entry k and decodes the response;
// the caller checks it. Any status but 200, 429 included, fails the
// request; nothing is retried.
func (e *wireEnv) send(ctx context.Context, id int64, k int, tr *tracer) (wireSample, error) {
	s := wireSample{entry: k}
	t0 := time.Now()
	body := wire.WithChecksum(e.request(k).Encode(nil))
	tr.add(id, "loadgen.request", "wire", "wire.req_encode", t0, time.Since(t0))
	s.reqBytes = len(body)

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url, bytes.NewReader(body))
	if err != nil {
		return s, err
	}
	req.Header.Set("Content-Type", wireContentType)
	if tr != nil {
		req.Header.Set(opHeader, strconv.FormatInt(id, 10))
	}
	t1 := time.Now()
	resp, err := e.hc.Do(req)
	if err != nil {
		return s, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.add(id, "loadgen.request", "server", "server.roundtrip", t1, time.Since(t1))
	if err != nil {
		return s, err
	}
	s.resBytes = len(data)
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}

	t2 := time.Now()
	typ, payload, _, err := wire.DecodeFrame(data)
	if err != nil {
		return s, err
	}
	if typ != wire.FrameMultiplyRes {
		return s, fmt.Errorf("frame type %d, want a multiply response", typ)
	}
	res, err := wire.DecodeMultiplyRes(payload)
	tr.add(id, "loadgen.request", "wire", "wire.res_decode", t2, time.Since(t2))
	if err != nil {
		return s, err
	}
	s.c = res.C
	s.coalesced = res.Flags&wire.FlagCoalesced != 0
	s.workers = int(res.Workers)
	return s, nil
}

// run drives one window: an open loop at wireSmallRate or a closed loop of
// conns clients. An open-loop request is timed from its due time when its
// worker was still busy then (queueing the server caused), and from the
// worker's wake-up when the worker slept: the timer's oversleep belongs to
// the generator and goes to loadgen.late_* only. The oracle check follows
// the timing, and the window less each client's mean check time is what
// ops_per_s divides by.
func (e *wireEnv) run(ctx context.Context, d time.Duration, tr *tracer, ids *atomic.Int64) (*phase, error) {
	if tr != nil {
		e.opEntry = map[int64]int{}
		e.coalesced, e.responses = 0, 0
		e.workers, e.reqBytes, e.resBytes = nil, nil, nil
		e.m0, e.s0 = e.sv.Metrics(), e.sv.Session().Stats()
		e.tracer.Store(tr)
		defer e.tracer.Store(nil)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err; cancel() })
	}
	total := int64(d.Seconds() * wireSmallRate)
	start := time.Now().Add(time.Millisecond)
	end := start.Add(d)
	parts := make([]*phase, e.conns)
	checks := make([]time.Duration, e.conns)
	for w := 0; w < e.conns; w++ {
		ph := &phase{}
		parts[w] = ph
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for ctx.Err() == nil {
				k := next.Add(1) - 1
				var begin time.Time
				if e.open {
					if k >= total {
						return
					}
					begin = start.Add(time.Duration(float64(k) / wireSmallRate * float64(time.Second)))
					if wait := time.Until(begin); wait > 0 {
						time.Sleep(wait)
						due := begin
						begin = time.Now()
						ph.late = append(ph.late, ms(begin.Sub(due)))
					}
				} else {
					if time.Now().After(end) {
						return
					}
					begin = time.Now()
					ph.late = append(ph.late, ms(begin.Sub(prev)))
				}
				id := ids.Add(1)
				entry := int(k % int64(len(e.cat)))
				s, err := e.send(ctx, id, entry, tr)
				lat := time.Since(begin)
				tr.add(id, "", "loadgen", "loadgen.request", begin, lat)
				if err == nil {
					t := time.Now()
					err = e.check(entry, s.c)
					checks[w] += time.Since(t)
				}
				ph.attempted++
				switch {
				case errors.Is(err, errMismatch):
					fail(err)
					return
				case err != nil && ctx.Err() != nil:
					return
				case err != nil:
					ph.failed++
				default:
					ph.ok(lat, 0)
				}
				if tr != nil {
					e.record(id, s)
				}
				prev = time.Now()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil && !errors.Is(err, context.Canceled) {
		return nil, err
	}
	all := &phase{}
	var checked time.Duration
	for w, p := range parts {
		all.merge(p)
		checked += checks[w]
	}
	all.busy = time.Since(start) - checked/time.Duration(e.conns)
	if tr != nil {
		e.m1, e.s1 = e.sv.Metrics(), e.sv.Session().Stats()
		e.windowOps = all.attempted
	}
	return all, nil
}

func (e *wireEnv) record(id int64, s wireSample) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.opEntry[id] = s.entry
	e.reqBytes = append(e.reqBytes, float64(s.reqBytes))
	if s.c != nil {
		e.responses++
		if s.coalesced {
			e.coalesced++
		}
		e.workers = append(e.workers, float64(s.workers))
		e.resBytes = append(e.resBytes, float64(s.resBytes))
	}
}

// layers splits the traced window's requests into client, transport and
// handler time from the spans, and replays the handler's decode,
// validation, execution and encode on the recorded request bodies to
// split the handler time further.
func (e *wireEnv) layers(ctx context.Context, tr *tracer, ids *atomic.Int64) (map[string]float64, error) {
	spans := tr.snapshot()
	out := sessionLayer(e.s0, e.s1, e.windowOps)
	hits := float64(e.m1.InternHits - e.m0.InternHits)
	misses := float64(e.m1.InternMisses - e.m0.InternMisses)
	out["server.intern_hit_ratio"] = ratio(hits, hits+misses)
	out["server.rejected"] = float64(e.m1.Rejected - e.m0.Rejected)
	out["masked.coalesced_ratio"] = ratio(float64(e.coalesced), float64(e.responses))
	out["wire.req_encode_us"] = median(durations(spans, "wire.req_encode"))
	out["wire.res_decode_us"] = median(durations(spans, "wire.res_decode"))
	out["wire.req_bytes"] = mean(e.reqBytes)
	out["wire.res_bytes"] = mean(e.resBytes)

	handler := byOp(spans, "server.handler")
	roundtrip := byOp(spans, "server.roundtrip")
	var transport []float64
	perEntry := make([][]float64, len(e.cat))
	for op, h := range handler {
		if rt, ok := roundtrip[op]; ok {
			transport = append(transport, rt-h)
		}
		if k, ok := e.opEntry[op]; ok {
			perEntry[k] = append(perEntry[k], h)
		}
	}
	out["server.handler_us"] = median(mapValues(handler))
	out["server.transport_us"] = median(transport)

	// The replay's session is built like the server's.
	ps := e.cat
	bench := masked.NewSession(masked.WithCalibration(masked.CalibrationAuto))
	outs := make([]*masked.Matrix, len(ps))
	for k := range ps { // warm the bench session's plans and pools
		res := bench.TryMultiply(ctx, ps[k].m, ps[k].a, ps[k].b, ps[k].opts()...)
		if res.Err != nil {
			return nil, res.Err
		}
		outs[k] = res.C
	}
	rp, execUs, err := replayProducts(ctx, bench, ps, replayReps(e.short), tr, ids)
	if err != nil {
		return nil, err
	}
	mergeInto(out, rp)
	// The server's own grants, not the bench session's.
	out["masked.workers_mean"] = mean(e.workers)

	reps := 5 * replayReps(e.short)
	var decode, validate, encode, residual float64
	for k := range ps {
		body := wire.WithChecksum(e.request(k).Encode(nil))
		var dec, val, enc []float64
		for r := 0; r < reps; r++ {
			id := ids.Add(1)
			t0 := time.Now()
			_, payload, _, err := wire.DecodeFrame(body)
			if err != nil {
				return nil, err
			}
			req, err := wire.DecodeMultiplyReq(payload)
			if err != nil {
				return nil, err
			}
			dt := time.Since(t0)
			tr.add(id, "", "wire", "wire.req_decode", t0, dt)
			dec = append(dec, us(dt))

			t0 = time.Now()
			verr := errors.Join(req.M.Validate(), req.A.Validate(), req.B.Validate())
			sorted := req.M.IsSortedRows() && req.A.IsSortedRows() && req.B.IsSortedRows()
			dt = time.Since(t0)
			tr.add(id, "", "server", "server.validate", t0, dt)
			if verr != nil || !sorted {
				return nil, fmt.Errorf("replay %s: operands invalid: %v", ps[k].name, verr)
			}
			val = append(val, us(dt))

			t0 = time.Now()
			(&wire.MultiplyRes{C: outs[k]}).Encode(nil)
			dt = time.Since(t0)
			tr.add(id, "", "wire", "wire.res_encode", t0, dt)
			enc = append(enc, us(dt))
		}
		decode += median(dec)
		validate += median(val)
		encode += median(enc)
		residual += median(perEntry[k]) - median(dec) - execUs[k] - median(enc)
	}
	n := float64(len(ps))
	out["wire.req_decode_us"] = decode / n
	out["server.validate_us"] = validate / n
	out["wire.res_encode_us"] = encode / n
	out["server.residual_us"] = residual / n
	return out, nil
}

func mapValues(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
