package matrix

// Builders and format conversions: COO→CSR with duplicate folding, CSR↔CSC,
// transpose, and construction from dense row data (for tests).

// NewCSRFromCOO builds a CSR matrix from triplets, summing duplicates with
// combine (if combine is nil, later entries overwrite earlier ones). Rows of
// the result are sorted by column index. The input slices are not modified.
func NewCSRFromCOO[T any](c *COO[T], combine func(T, T) T) *CSR[T] {
	m, n := c.NRows, c.NCols
	nnzIn := len(c.Row)
	// Counting sort by row.
	counts := make([]Index, m+1)
	for _, r := range c.Row {
		counts[r+1]++
	}
	for i := Index(0); i < m; i++ {
		counts[i+1] += counts[i]
	}
	rowptr := counts // counts is now the row pointer array of the row-bucketed copy
	colTmp := make([]Index, nnzIn)
	valTmp := make([]T, nnzIn)
	fill := make([]Index, m)
	for k := 0; k < nnzIn; k++ {
		r := c.Row[k]
		pos := rowptr[r] + fill[r]
		fill[r]++
		colTmp[pos] = c.Col[k]
		valTmp[pos] = c.Val[k]
	}
	// Sort each row, then fold duplicates.
	for i := Index(0); i < m; i++ {
		sortRowSegment(colTmp[rowptr[i]:rowptr[i+1]], valTmp[rowptr[i]:rowptr[i+1]])
	}
	outPtr := make([]Index, m+1)
	outCol := make([]Index, 0, nnzIn)
	outVal := make([]T, 0, nnzIn)
	for i := Index(0); i < m; i++ {
		lo, hi := rowptr[i], rowptr[i+1]
		for k := lo; k < hi; {
			j := colTmp[k]
			v := valTmp[k]
			k++
			for k < hi && colTmp[k] == j {
				if combine != nil {
					v = combine(v, valTmp[k])
				} else {
					v = valTmp[k]
				}
				k++
			}
			outCol = append(outCol, j)
			outVal = append(outVal, v)
		}
		outPtr[i+1] = Index(len(outCol))
	}
	return &CSR[T]{NRows: m, NCols: n, RowPtr: outPtr, Col: outCol, Val: outVal}
}

// Transpose returns Aᵀ as a new CSR matrix with sorted rows (a counting-sort
// transpose: O(nnz + n)).
func Transpose[T any](a *CSR[T]) *CSR[T] {
	m, n := a.NRows, a.NCols
	nnz := a.NNZ()
	ptr := make([]Index, n+1)
	for _, j := range a.Col {
		ptr[j+1]++
	}
	for j := Index(0); j < n; j++ {
		ptr[j+1] += ptr[j]
	}
	col := make([]Index, nnz)
	val := make([]T, nnz)
	fill := make([]Index, n)
	for i := Index(0); i < m; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.Col[k]
			pos := ptr[j] + fill[j]
			fill[j]++
			col[pos] = i
			val[pos] = a.Val[k]
		}
	}
	return &CSR[T]{NRows: n, NCols: m, RowPtr: ptr, Col: col, Val: val}
}

// ToCSC converts a CSR matrix to CSC. Column segments list row indices in
// increasing order. The conversion is the same counting sort as Transpose.
func ToCSC[T any](a *CSR[T]) *CSC[T] {
	t := Transpose(a)
	return &CSC[T]{NRows: a.NRows, NCols: a.NCols, ColPtr: t.RowPtr, Row: t.Col, Val: t.Val}
}

// FromCSC converts a CSC matrix back to CSR with sorted rows.
func FromCSC[T any](a *CSC[T]) *CSR[T] {
	// A CSC of A has the same layout as a CSR of Aᵀ; transpose that.
	tr := &CSR[T]{NRows: a.NCols, NCols: a.NRows, RowPtr: a.ColPtr, Col: a.Row, Val: a.Val}
	return Transpose(tr)
}

// TransposePattern returns the transpose of a pattern.
func TransposePattern(p *Pattern) *Pattern {
	m, n := p.NRows, p.NCols
	nnz := p.NNZ()
	ptr := make([]Index, n+1)
	for _, j := range p.Col {
		ptr[j+1]++
	}
	for j := Index(0); j < n; j++ {
		ptr[j+1] += ptr[j]
	}
	col := make([]Index, nnz)
	fill := make([]Index, n)
	for i := Index(0); i < m; i++ {
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			j := p.Col[k]
			pos := ptr[j] + fill[j]
			fill[j]++
			col[pos] = i
		}
	}
	return &Pattern{NRows: n, NCols: m, RowPtr: ptr, Col: col}
}

// Tril returns the strictly lower triangular part of a (entries with
// column < row), preserving row order. Used by triangle counting, which
// computes sum(L .* (L·L)) after degree relabeling (§8.2).
func Tril[T any](a *CSR[T]) *CSR[T] {
	out := &CSR[T]{NRows: a.NRows, NCols: a.NCols, RowPtr: make([]Index, a.NRows+1)}
	for i := Index(0); i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.Col[k] < i {
				out.Col = append(out.Col, a.Col[k])
				out.Val = append(out.Val, a.Val[k])
			}
		}
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out
}

// Triu returns the strictly upper triangular part of a (column > row).
func Triu[T any](a *CSR[T]) *CSR[T] {
	out := &CSR[T]{NRows: a.NRows, NCols: a.NCols, RowPtr: make([]Index, a.NRows+1)}
	for i := Index(0); i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.Col[k] > i {
				out.Col = append(out.Col, a.Col[k])
				out.Val = append(out.Val, a.Val[k])
			}
		}
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out
}

// Permute returns P·A·Pᵀ for the permutation perm, i.e. the matrix with
// rows and columns relabeled so that old vertex v becomes perm[v]. Rows of
// the result are sorted, by two counting-sort passes and no comparison sort.
// perm must be a bijection on [0, NRows); the matrix must be square.
func Permute[T any](a *CSR[T], perm []Index) *CSR[T] {
	return Transpose(permuteT(a, perm, false))
}

// PermuteTril returns Tril(Permute(a, perm)) — the strictly lower part of
// P·A·Pᵀ, the L of triangle counting (§8.2) — without forming the full
// permuted matrix. It assumes nothing of a beyond Permute's contract; in
// particular a need not be symmetric.
func PermuteTril[T any](a *CSR[T], perm []Index) *CSR[T] {
	return Transpose(permuteT(a, perm, true))
}

// permuteT returns (P·A·Pᵀ)ᵀ, keeping only the entries of P·A·Pᵀ with new
// column < new row when lower is set. It visits the new rows in ascending
// order and buckets each entry by its new column, so every row of the
// result comes out sorted; Transpose (a second counting sort) then yields
// P·A·Pᵀ with sorted rows.
func permuteT[T any](a *CSR[T], perm []Index, lower bool) *CSR[T] {
	n := a.NRows
	inv := make([]Index, n)
	ptr := make([]Index, n+1)
	for i := Index(0); i < n; i++ {
		r := perm[i]
		inv[r] = i
		for _, j := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
			if c := perm[j]; !lower || c < r {
				ptr[c+1]++
			}
		}
	}
	for c := Index(0); c < n; c++ {
		ptr[c+1] += ptr[c]
	}
	col := make([]Index, ptr[n])
	val := make([]T, ptr[n])
	next := append([]Index(nil), ptr[:n]...)
	for r := Index(0); r < n; r++ {
		i := inv[r]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if c := perm[a.Col[k]]; !lower || c < r {
				col[next[c]] = r
				val[next[c]] = a.Val[k]
				next[c]++
			}
		}
	}
	return &CSR[T]{NRows: n, NCols: n, RowPtr: ptr, Col: col, Val: val}
}

// DegreeDescPerm returns a permutation that relabels vertices in
// non-increasing order of degree (row nnz), breaking ties by original id.
// Triangle counting uses this relabeling for optimal performance (§8.2).
// It is a stable counting sort on degree: O(n + maxdeg).
func DegreeDescPerm[T any](a *CSR[T]) []Index {
	n := a.NRows
	maxDeg := Index(0)
	for i := Index(0); i < n; i++ {
		maxDeg = max(maxDeg, a.RowNNZ(i))
	}
	// next[maxDeg-d] is the next new label for a degree-d vertex: the
	// vertices of higher degree all come before it.
	next := make([]Index, maxDeg+2)
	for i := Index(0); i < n; i++ {
		next[maxDeg-a.RowNNZ(i)+1]++
	}
	for d := Index(0); d <= maxDeg; d++ {
		next[d+1] += next[d]
	}
	perm := make([]Index, n)
	for i := Index(0); i < n; i++ {
		b := maxDeg - a.RowNNZ(i)
		perm[i] = next[b]
		next[b]++
	}
	return perm
}

// MapValues returns a copy of a with every stored value transformed by f.
// The pattern is shared behavior-wise but copied to keep matrices immutable.
func MapValues[T, U any](a *CSR[T], f func(T) U) *CSR[U] {
	out := &CSR[U]{
		NRows:  a.NRows,
		NCols:  a.NCols,
		RowPtr: append([]Index(nil), a.RowPtr...),
		Col:    append([]Index(nil), a.Col...),
		Val:    make([]U, len(a.Val)),
	}
	for k, v := range a.Val {
		out.Val[k] = f(v)
	}
	return out
}

// Spones returns a copy of a with every stored value replaced by one.
func Spones(a *CSR[float64]) *CSR[float64] {
	return MapValues(a, func(float64) float64 { return 1 })
}

// FromPattern materializes a CSR matrix from a pattern with all values set
// to v.
func FromPattern[T any](p *Pattern, v T) *CSR[T] {
	out := &CSR[T]{
		NRows:  p.NRows,
		NCols:  p.NCols,
		RowPtr: append([]Index(nil), p.RowPtr...),
		Col:    append([]Index(nil), p.Col...),
		Val:    make([]T, len(p.Col)),
	}
	for k := range out.Val {
		out.Val[k] = v
	}
	return out
}

// FilterEntries returns the matrix containing only entries for which
// keep(i, j, v) is true.
func FilterEntries[T any](a *CSR[T], keep func(i, j Index, v T) bool) *CSR[T] {
	out := &CSR[T]{NRows: a.NRows, NCols: a.NCols, RowPtr: make([]Index, a.NRows+1)}
	for i := Index(0); i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if keep(i, a.Col[k], a.Val[k]) {
				out.Col = append(out.Col, a.Col[k])
				out.Val = append(out.Val, a.Val[k])
			}
		}
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out
}
