package ntt

import "fmt"

// BatchView is a fusion-friendly view over the polynomial slices of
// one batched NTT launch: polys × qCount independent N-point rows that
// need not be contiguous in a single allocation. The Engine's kernels
// address the batch exclusively through Row(p, q), so a view can stitch
// together slices from many device buffers — typically the polynomials
// of several coalesced jobs — and drive them through one wider kernel
// launch instead of one launch per job (cross-job kernel fusion).
//
// Row (p, q) is transform p under tables/modulus q. The contiguous
// single-buffer layout the engine has always used — slice (p, q) at
// offset (p*qCount+q)*N — is just the special case built by
// ContiguousView.
//
// A view is immutable once handed to the engine; the engine reads and
// writes the row contents but never the row table. Rows must be
// pairwise non-overlapping: two rows aliasing the same memory would
// race inside one launch (work-groups run concurrently). Views built
// from distinct live device buffers satisfy this by construction.
type BatchView struct {
	n      int
	polys  int
	qCount int
	rows   [][]uint64 // indexed p*qCount+q; nil in a shape-only view
}

// NewBatchView allocates an empty view of polys × qCount rows of
// length n each; fill it with SetRow.
func NewBatchView(polys, qCount, n int) *BatchView {
	v := ShapeView(polys, qCount, n)
	v.rows = make([][]uint64, polys*qCount)
	return v
}

// ShapeView returns a view that is its dimensions and nothing else: no
// row table, so rows cannot be installed. It is what pricing a
// transform needs, and a transform over it is timing-only.
func ShapeView(polys, qCount, n int) *BatchView {
	if polys <= 0 || qCount <= 0 {
		panic(fmt.Sprintf("ntt: batch view needs positive dimensions, got %d x %d", polys, qCount))
	}
	return &BatchView{n: n, polys: polys, qCount: qCount}
}

// ContiguousView wraps the engine's classic flat batch layout — slice
// (p, q) at offset (p*qCount+q)*n of one allocation — as a view. A nil
// data slice builds a shape-only view (see ShapeView).
func ContiguousView(data []uint64, polys, qCount, n int) *BatchView {
	if data == nil {
		return ShapeView(polys, qCount, n)
	}
	v := NewBatchView(polys, qCount, n)
	if len(data) < polys*qCount*n {
		panic("ntt: data slice too short for batch")
	}
	for i := range v.rows {
		v.rows[i] = data[i*n : (i+1)*n]
	}
	return v
}

// SetRow installs the slice of transform p under tables index q.
func (v *BatchView) SetRow(p, q int, row []uint64) {
	if len(row) < v.n {
		panic(fmt.Sprintf("ntt: batch row (%d,%d) has %d words, need %d", p, q, len(row), v.n))
	}
	v.rows[p*v.qCount+q] = row[:v.n]
}

// Row returns the slice of transform p under tables index q.
func (v *BatchView) Row(p, q int) []uint64 { return v.rows[p*v.qCount+q] }

// check validates that every row a functional launch will touch is
// installed; timing-only launches never read rows and skip it.
func (v *BatchView) check(tbls []*Tables) {
	if len(tbls) != v.qCount {
		panic(fmt.Sprintf("ntt: view has %d tables columns but %d tables given", v.qCount, len(tbls)))
	}
	if tbls[0].N != v.n {
		panic(fmt.Sprintf("ntt: view is %d-point but tables are %d-point", v.n, tbls[0].N))
	}
	for i, r := range v.rows {
		if r == nil {
			panic(fmt.Sprintf("ntt: batch row (%d,%d) not set", i/v.qCount, i%v.qCount))
		}
	}
}
