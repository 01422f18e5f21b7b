package masked

// Unified per-session observability. PR 5 grew three separate accessors —
// PlanCacheStats, ServingStats, and the workspace-level driver pool
// counters — and every consumer (the /metrics exporter, the bench
// studies, dashboards) had to reach into all three. Session.Stats returns
// the one coherent snapshot they share instead. The old accessors remain;
// Stats is the preferred surface.

import (
	"repro/internal/core"
	"repro/internal/parallel"
)

// ArbiterStats is a snapshot of the serving arbiter's admission and
// budget accounting; see Session.ServingStats and parallel.ArbiterStats.
type ArbiterStats = parallel.ArbiterStats

// DriverPoolStats is a snapshot of the session workspace's driver buffer
// pool counters: Gets counts fetches, Misses the subset that had to
// allocate (zero growth once the session is warm).
type DriverPoolStats = core.PoolStats

// CalibrationStats describes the cost model a session plans with — fixed at
// NewSession, so every field is constant for the session's lifetime.
type CalibrationStats struct {
	// Mode is the session's calibration mode ("off", "auto", "force").
	Mode string
	// Source is where the model's coefficients came from: "default" (the
	// hand-tuned §8 constants), "probed" (this process ran the calibration
	// probes) or "host-cache" (a previous process's fit for this host).
	Source string
	// NsPerUnit is the measured nanoseconds one model cost unit corresponds
	// to (1 for the dimensionless default model).
	NsPerUnit float64
	// CostPerWorker is the admission cost unit the serving arbiter divides
	// asks by.
	CostPerWorker int64
	// SaveError is why persisting a freshly probed model to the per-host
	// cache failed ("" when it succeeded or nothing was saved). A nonempty
	// value means every future process on this host re-probes (~10 ms) until
	// the underlying problem — usually an unwritable cache dir — is fixed.
	SaveError string
}

// Stats is one unified snapshot of a session's observability counters:
// the plan cache, the serving arbiter, the driver buffer pools, and the
// session's calibration. The monotonic fields within each component (hits,
// misses, evictions, replans, admitted, steals, top-ups, rejections, pool
// gets/misses) can be differenced between two snapshots to rate a serving
// window; the rest describe the moment of the snapshot.
type Stats struct {
	// Cache is the plan cache snapshot (Session.PlanCacheStats).
	Cache CacheStats
	// Arbiter is the serving arbiter snapshot (Session.ServingStats).
	Arbiter ArbiterStats
	// DriverPool is the driver buffer pool snapshot.
	DriverPool DriverPoolStats
	// Calibration describes the session's cost model.
	Calibration CalibrationStats
	// Panics counts request-boundary panics the serving layer recovered
	// (monotonic; see Session.Panics).
	Panics int64
}

// Stats returns one snapshot of all the session's observability counters.
// The three components are read in sequence, not atomically with respect
// to each other — fine for dashboards and rate computation, which is what
// snapshots are for.
func (s *Session) Stats() Stats {
	return Stats{
		Cache:      s.cache.Stats(),
		Arbiter:    s.arb.Stats(),
		DriverPool: s.ws.PoolStatsSnapshot(),
		Panics:     s.panics.Load(),
		Calibration: CalibrationStats{
			Mode:          s.def.calib.String(),
			Source:        s.model.Source,
			NsPerUnit:     s.model.NsPerUnit,
			CostPerWorker: s.model.CostPerWorker,
			SaveError:     s.model.SaveErr,
		},
	}
}
