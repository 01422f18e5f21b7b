package core

import (
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Hybrid masked SpGEMM — the paper's stated future work (§9): "hybrid
// algorithms that can use different accumulators in the same Masked SpGEMM
// depending on the density of the mask and parts of matrices being
// processed". This kernel chooses, per output row, among the three regimes
// Fig. 7 identifies:
//
//   - mask row much sparser than the row's flops → pull (dot products),
//   - flops much smaller than the mask row        → heap merge (NInspect=1),
//   - comparable                                   → MSA scatter/gather.
//
// The decision uses only O(nnz(A_i*)) work per row (summing B row lengths),
// so its overhead is negligible next to the multiply. Thresholds follow the
// §4.3 asymptotic comparison: pull wins when nnz(m_i)·d ≪ flops_i, push
// wins otherwise, and the heap's log factor only pays off when flops_i ≪
// nnz(m_i).
type hybridKernel[T any, O semiring.Ops[T]] struct {
	m    *matrix.Pattern
	a    *matrix.CSR[T]
	b    *matrix.CSR[T]
	bcsc *matrix.CSC[T]
	msa  *msaKernel[T, O]
	heap *heapKernel[T, O]
	dot  *innerKernel[T, O]
	// stats counts rows routed to each sub-kernel (diagnostics).
	stats *HybridStats
}

// HybridStats counts the per-row routing decisions of the hybrid kernel.
// Counters are per-call (the kernel factory aggregates across workers with
// per-worker counters summed at the end — here each worker keeps its own
// and the driver result is advisory, so plain int64s suffice).
type HybridStats struct {
	PullRows, HeapRows, MSARows int64
}

// hybridPullFactor: pull when flops_i > hybridPullFactor · nnz(m_i)·avgdeg.
const hybridPullFactor = 8

// hybridHeapFactor: heap when nnz(m_i) > hybridHeapFactor · flops_i.
const hybridHeapFactor = 8

func newHybridKernelFactory[T any, O semiring.Ops[T]](m *matrix.Pattern, a, b *matrix.CSR[T], bcsc *matrix.CSC[T], ops O, stats *HybridStats, ws *Workspaces) func() kernel[T] {
	return func() kernel[T] {
		dot := &innerKernel[T, O]{m: m, a: a, bcsc: bcsc, ops: ops}
		dot.lp.dot = dot.dot // funcptr path: generic merge (see newInnerKernelFactory)
		return &hybridKernel[T, O]{
			m: m, a: a, b: b, bcsc: bcsc,
			msa:   &msaKernel[T, O]{m: m, a: a, b: b, ops: ops, acc: wsGetMSA[T](ws, int(b.NCols))},
			heap:  &heapKernel[T, O]{m: m, a: a, b: b, ops: ops, nInspect: 1, pq: wsGetHeap(ws)},
			dot:   dot,
			stats: stats,
		}
	}
}

func (k *hybridKernel[T, O]) recycle(ws *Workspaces) {
	k.msa.recycle(ws)
	k.heap.recycle(ws)
}

// route picks the sub-kernel for row i.
func (k *hybridKernel[T, O]) route(i Index) kernel[T] {
	mnnz := int64(k.m.RowNNZ(i))
	if mnnz == 0 {
		return k.msa // empty row; any kernel returns 0 immediately
	}
	var flops int64
	for kk := k.a.RowPtr[i]; kk < k.a.RowPtr[i+1]; kk++ {
		kcol := k.a.Col[kk]
		flops += int64(k.b.RowPtr[kcol+1] - k.b.RowPtr[kcol])
	}
	avgDeg := int64(1)
	if k.b.NCols > 0 {
		avgDeg += int64(k.b.NNZ()) / int64(k.b.NCols)
	}
	switch {
	case flops > hybridPullFactor*mnnz*avgDeg:
		if k.stats != nil {
			k.stats.PullRows++
		}
		return k.dot
	case mnnz > hybridHeapFactor*flops:
		if k.stats != nil {
			k.stats.HeapRows++
		}
		return k.heap
	default:
		if k.stats != nil {
			k.stats.MSARows++
		}
		return k.msa
	}
}

func (k *hybridKernel[T, O]) numericRow(i Index, col []Index, val []T) Index {
	return k.route(i).numericRow(i, col, val)
}

func (k *hybridKernel[T, O]) symbolicRow(i Index) Index {
	return k.route(i).symbolicRow(i)
}

// MaskedSpGEMMHybrid computes C = M .* (A·B) with the per-row adaptive
// hybrid kernel (the §9 future-work design). Complemented masks are not
// supported (the pull sub-kernel's complement is Θ(ncols) per row, which
// defeats the routing). stats, if non-nil, receives approximate routing
// counts; with multiple workers the counts are racy-but-indicative and
// exact with Options.Threads == 1. Like MaskedSpGEMM, it gathers its own
// row-cost profile under SchedCost when opt.RowCosts is nil.
func MaskedSpGEMMHybrid[T any](phase Phase, m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T], opt Options, stats *HybridStats) (*matrix.CSR[T], error) {
	if err := checkDims(m, a, b); err != nil {
		return nil, err
	}
	if opt.Complement {
		return nil, errHybridComplement
	}
	if err := opt.Err(); err != nil {
		return nil, err
	}
	bcsc := matrix.ToCSC(b)
	factory := newHybridKernelFactory(m, a, b, bcsc, funcOps(sr), stats, opt.Workspaces)
	bound := allocBound(m, a, b, false)
	return runDriver(phase, m, b.NCols, bound, factory, withPinnedProfile(opt, m, a, b))
}

var errHybridComplement = fmtErr("core: hybrid kernel does not support complemented masks")

type fmtErr string

func (e fmtErr) Error() string { return string(e) }
