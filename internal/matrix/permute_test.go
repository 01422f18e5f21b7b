package matrix_test

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grgen"
	"repro/internal/matrix"
)

// randomSquare returns a seeded non-symmetric n×n matrix with distinct
// values, some self-loops and (for n > 2) every third row empty.
func randomSquare(r *rand.Rand, n matrix.Index) *matrix.CSR[float64] {
	c := &matrix.COO[float64]{NRows: n, NCols: n}
	for e := 0; e < 4*int(n); e++ {
		i := matrix.Index(r.Intn(int(n)))
		if n > 2 && i%3 == 1 {
			continue // rows ≡ 1 (mod 3) stay empty
		}
		j := matrix.Index(r.Intn(int(n)))
		if e%5 == 0 {
			j = i
		}
		c.Row, c.Col, c.Val = append(c.Row, i), append(c.Col, j), append(c.Val, r.Float64())
	}
	return matrix.NewCSRFromCOO(c, nil)
}

func randomPerm(r *rand.Rand, n matrix.Index) []matrix.Index {
	perm := make([]matrix.Index, n)
	for i, p := range r.Perm(int(n)) {
		perm[i] = matrix.Index(p)
	}
	return perm
}

// permuteRef is the comparison-sort reference for Permute: relabel every
// entry, then sort the triplets by (row, col).
func permuteRef(a *matrix.CSR[float64], perm []matrix.Index) *matrix.CSR[float64] {
	type entry struct {
		i, j matrix.Index
		v    float64
	}
	var es []entry
	for i := matrix.Index(0); i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			es = append(es, entry{perm[i], perm[j], vals[k]})
		}
	}
	slices.SortFunc(es, func(x, y entry) int { return cmp.Or(cmp.Compare(x.i, y.i), cmp.Compare(x.j, y.j)) })
	out := &matrix.CSR[float64]{NRows: a.NRows, NCols: a.NCols, RowPtr: make([]matrix.Index, a.NRows+1)}
	for _, e := range es {
		out.RowPtr[e.i+1]++
		out.Col, out.Val = append(out.Col, e.j), append(out.Val, e.v)
	}
	for i := matrix.Index(0); i < a.NRows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	return out
}

// degreeDescPermRef is the comparison-sort reference for DegreeDescPerm.
func degreeDescPermRef(a *matrix.CSR[float64]) []matrix.Index {
	order := make([]matrix.Index, a.NRows)
	for i := range order {
		order[i] = matrix.Index(i)
	}
	slices.SortStableFunc(order, func(x, y matrix.Index) int { return cmp.Compare(a.RowNNZ(y), a.RowNNZ(x)) })
	perm := make([]matrix.Index, a.NRows)
	for newID, oldID := range order {
		perm[oldID] = matrix.Index(newID)
	}
	return perm
}

// bitIdentical reports whether a and b have the same shape, row pointers,
// column indices and value bits.
func bitIdentical(a, b *matrix.CSR[float64]) bool {
	return a.NRows == b.NRows && a.NCols == b.NCols &&
		slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.Col, b.Col) &&
		slices.EqualFunc(a.Val, b.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestPermuteTrilMatchesTrilOfPermute(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range []matrix.Index{0, 1, 2, 3, 7, 50, 301} {
		for rep := 0; rep < 4; rep++ {
			a := randomSquare(r, n)
			for _, pc := range []struct {
				name string
				perm []matrix.Index
			}{{"random", randomPerm(r, n)}, {"degree", matrix.DegreeDescPerm(a)}} {
				ref := permuteRef(a, pc.perm)
				p := matrix.Permute(a, pc.perm)
				if !bitIdentical(p, ref) {
					t.Fatalf("n=%d rep=%d %s perm: Permute differs from the sort-based reference", n, rep, pc.name)
				}
				if l := matrix.PermuteTril(a, pc.perm); !bitIdentical(l, matrix.Tril(ref)) || !bitIdentical(l, matrix.Tril(p)) {
					t.Fatalf("n=%d rep=%d %s perm: PermuteTril differs from Tril(Permute)", n, rep, pc.name)
				}
			}
		}
	}
}

func TestDegreeDescPermMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	graphs := map[string]*matrix.CSR[float64]{
		"rmat-s10-d8":   grgen.RMAT(10, 8, 1),
		"rmat-directed": grgen.RMATDirected(9, 16, 2),
		"er-sym-1000-6": grgen.ErdosRenyiSym(1000, 6, 3),
		"er-700-3":      grgen.ErdosRenyi(700, 3, 4),
		"random-n0":     randomSquare(r, 0),
		"random-n1":     randomSquare(r, 1),
		"random-n200":   randomSquare(r, 200),
		"rmat-s8-d4":    grgen.RMAT(8, 4, 5),
	}
	for name, g := range graphs {
		if got, want := matrix.DegreeDescPerm(g), degreeDescPermRef(g); !slices.Equal(got, want) {
			t.Errorf("%s: DegreeDescPerm differs from the stable-sort reference", name)
		}
	}
}

// BenchmarkPermuteTril times triangle counting's relabel-and-tril on an
// R-MAT s14 d16 graph, beside the full relabel it replaces.
func BenchmarkPermuteTril(b *testing.B) {
	g := grgen.RMAT(14, 16, 1)
	perm := matrix.DegreeDescPerm(g)
	b.Run("PermuteTril", func(b *testing.B) {
		for b.Loop() {
			matrix.PermuteTril(g, perm)
		}
	})
	b.Run("Permute", func(b *testing.B) {
		for b.Loop() {
			matrix.Permute(g, perm)
		}
	})
	b.Run("DegreeDescPerm", func(b *testing.B) {
		for b.Loop() {
			matrix.DegreeDescPerm(g)
		}
	})
}
