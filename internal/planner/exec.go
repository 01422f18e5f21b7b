package planner

// ExecStats describes one observed execution of a plan, stamped by the
// masked session on the plan copy it returns (cached plans are shared and
// never mutated — see TestExplainExecStampImmutable).
type ExecStats struct {
	// ActualNs is the execution's summed per-block worker kernel time.
	ActualNs int64
	// BlockNs is the per-plan-block split of ActualNs, index-aligned with
	// Plan.Blocks.
	BlockNs []int64
}

// WithExec returns a shallow copy of p stamped with the given execution
// observation (like the session's ops stamp, the copy keeps the cached plan
// immutable). Predicted-vs-actual time appears in the copy's Explain output.
func (p *Plan) WithExec(e ExecStats) *Plan {
	q := *p
	q.Exec = &e
	return &q
}
