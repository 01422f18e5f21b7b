package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/planner"
)

// TestMain points the wire workloads' calibration cache at a temporary
// directory instead of the user's cache directory.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-calibration-")
	if err != nil {
		panic(err)
	}
	os.Setenv(planner.CalibrationDirEnv, dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkJSON is the part of ../BENCHMARK.json the program must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, want []struct{ Name, Unit string }, got []metricDef) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func shortRun(t *testing.T, name string, trace bool) *report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := run(ctx, config{workload: name, seed: 7, seconds: 0.4, trace: trace, short: true})
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", name, trace, err)
	}
	return rep
}

// assertMetrics checks that every named metric is printed, finite, with
// its unit.
func assertMetrics(t *testing.T, r result, want []metricDef) {
	t.Helper()
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%d metrics printed, want %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := r.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.name)
		case v.Unit != m.unit:
			t.Errorf("metric %s: unit %q, want %q", m.name, v.Unit, m.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s: value %v", m.name, v.Value)
		}
	}
}

func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := shortRun(t, w.name, false)
			assertMetrics(t, plain.res, endToEnd)
			for _, m := range []string{"setup_s", "p50_ms", "p90_ms", "ops_per_s", "max_rss_mb"} {
				if plain.res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, plain.res.Metrics[m].Value)
				}
			}
			if plain.meta["seed"] != uint64(7) || plain.meta["host"] == nil || plain.meta["inputs"] == nil {
				t.Errorf("metadata lacks seed, host or inputs: %v", plain.meta)
			}

			traced := shortRun(t, w.name, true)
			assertMetrics(t, traced.res, perLayer)
			if len(traced.spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			// Every span that names a parent is linked to it through the
			// operation id.
			names := map[int64]map[string]bool{}
			for _, s := range traced.spans {
				if names[s.Op] == nil {
					names[s.Op] = map[string]bool{}
				}
				names[s.Op][s.Name] = true
			}
			linked := 0
			for _, s := range traced.spans {
				if s.Parent == "" {
					continue
				}
				if !names[s.Op][s.Parent] {
					t.Fatalf("span %s of op %d names parent %s, which op %d lacks", s.Name, s.Op, s.Parent, s.Op)
				}
				linked++
			}
			if w.name == "wire_small" || w.name == "wire_large" {
				if linked == 0 {
					t.Error("no handler spans linked to their requests")
				}
				for _, s := range traced.spans {
					if s.Name == "server.handler" && !names[s.Op]["loadgen.request"] {
						t.Errorf("handler span of op %d has no request span", s.Op)
					}
				}
			}
		})
	}
}

func TestOracleRejectsCorruptReference(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			e, err := w.build(ctx, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			if err := e.reference(ctx); err != nil {
				t.Fatal(err)
			}
			e.corrupt()
			_, err = measure(ctx, config{workload: w.name, seed: 7, seconds: 0.4, short: true}, w, e, []float64{1})
			if !errors.Is(err, errMismatch) {
				t.Fatalf("corrupted reference: err = %v, want a mismatch", err)
			}
		})
	}
}

func TestWithinCountsOwnLatencies(t *testing.T) {
	// Two inputs, one four times as slow, and one failed operation. The
	// percentiles scale both inputs to their mean; the limit must not.
	p := &phase{attempted: 5}
	p.ok(time.Millisecond, 0)
	p.ok(time.Millisecond, 0)
	p.ok(4*time.Millisecond, 1)
	p.ok(4*time.Millisecond, 1)
	if got := p.within(2); got != 0.4 {
		t.Errorf("within(2 ms) = %v, want 0.4", got)
	}
}
