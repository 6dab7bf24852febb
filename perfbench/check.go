package main

// Correctness checks. Everything here is computed by the benchmark on
// its own, from the page graph or from adjacency read back from disk,
// by the paper's definitions — never by calling the code under test.

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"

	"sourcerank/internal/pagegraph"
	"sourcerank/internal/source"
)

// sparse is a plain row-major sparse matrix: row i holds
// cols[ptr[i]:ptr[i+1]] and vals[ptr[i]:ptr[i+1]].
type sparse struct {
	n    int
	ptr  []int
	cols []int32
	vals []float64
}

// consensus holds the source-level counts the paper defines: w(i, j) is
// the number of distinct pages of source i that link into source j
// (i = j included).
type consensus struct {
	n      int
	ptr    []int
	cols   []int32
	counts []int64
}

// deriveConsensus computes the consensus counts of pg.
func deriveConsensus(pg *pagegraph.Graph) consensus {
	n := pg.NumSources()
	var keys []uint64
	var tgt []int32
	for p := 0; p < pg.NumPages(); p++ {
		out := pg.OutLinks(pagegraph.PageID(p))
		if len(out) == 0 {
			continue
		}
		tgt = tgt[:0]
		for _, q := range out {
			tgt = append(tgt, int32(pg.SourceOf(q)))
		}
		slices.Sort(tgt)
		tgt = slices.Compact(tgt)
		hi := uint64(uint32(pg.SourceOf(pagegraph.PageID(p)))) << 32
		for _, t := range tgt {
			keys = append(keys, hi|uint64(uint32(t)))
		}
	}
	slices.Sort(keys)
	c := consensus{n: n, ptr: make([]int, n+1)}
	for i := 0; i < len(keys); {
		j := i
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		c.ptr[keys[i]>>32+1]++
		c.cols = append(c.cols, int32(uint32(keys[i])))
		c.counts = append(c.counts, int64(j-i))
		i = j
	}
	for i := 0; i < n; i++ {
		c.ptr[i+1] += c.ptr[i]
	}
	return c
}

// throttled builds the paper's influence-throttled matrix T″ from the
// consensus counts and κ: T is the row-normalized consensus matrix with a
// mandatory self-edge (a source with no out-links keeps all its mass),
// and a row whose self-weight is below κ_i gets self-weight κ_i with its
// other weights scaled to keep the row stochastic.
func (c consensus) throttled(kappa []float64) sparse {
	t := sparse{n: c.n, ptr: make([]int, c.n+1)}
	for i := 0; i < c.n; i++ {
		lo, hi := c.ptr[i], c.ptr[i+1]
		var total, self float64
		for k := lo; k < hi; k++ {
			total += float64(c.counts[k])
			if int(c.cols[k]) == i {
				self = float64(c.counts[k])
			}
		}
		if hi == lo {
			t.cols = append(t.cols, int32(i))
			t.vals = append(t.vals, 1)
			t.ptr[i+1] = len(t.cols)
			continue
		}
		self /= total
		off := 1 - self
		k := kappa[i]
		switch {
		case self >= k:
			k = self
		case off <= 0 || k >= 1:
			k = 1
		}
		scale := 0.0
		if off > 0 {
			scale = (1 - k) / off
		}
		t.cols = append(t.cols, int32(i))
		t.vals = append(t.vals, k)
		for p := lo; p < hi; p++ {
			if int(c.cols[p]) != i && scale > 0 {
				t.cols = append(t.cols, c.cols[p])
				t.vals = append(t.vals, float64(c.counts[p])/total*scale)
			}
		}
		t.ptr[i+1] = len(t.cols)
	}
	return t
}

// srsrResidual returns ‖α·T″ᵀσ + (1−α)c − σ‖₁ with c uniform.
func srsrResidual(t sparse, sigma []float64, alpha float64) float64 {
	y := make([]float64, t.n)
	for i := 0; i < t.n; i++ {
		for p := t.ptr[i]; p < t.ptr[i+1]; p++ {
			y[t.cols[p]] += sigma[i] * t.vals[p]
		}
	}
	tele := (1 - alpha) / float64(t.n)
	var r float64
	for i := range y {
		r += math.Abs(alpha*y[i] + tele - sigma[i])
	}
	return r
}

// proximityResidual checks the spam-proximity walk of the paper's §5:
// an inverse walk over the reversed distinct source edges, uniform over
// each node's reversed out-edges, teleporting to the spam seeds; mass
// that reaches a node with no reversed out-edge rejoins the teleport.
func proximityResidual(c consensus, seeds []int32, prox []float64, beta float64) float64 {
	indeg := make([]int64, c.n)
	for _, j := range c.cols {
		indeg[j]++
	}
	y := make([]float64, c.n)
	var sum float64
	for u := 0; u < c.n; u++ {
		for p := c.ptr[u]; p < c.ptr[u+1]; p++ {
			v := c.cols[p]
			y[u] += prox[v] / float64(indeg[v])
		}
		sum += y[u]
	}
	d := make([]float64, c.n)
	for _, s := range seeds {
		d[s] = 1
	}
	var ds float64
	for _, v := range d {
		ds += v
	}
	var r float64
	for u := range y {
		r += math.Abs(beta*y[u] + (1-beta*sum)*d[u]/ds - prox[u])
	}
	return r
}

// rankOrder lists the indexes of scores from the highest score down, ties
// going to the lower index: the order every ranking here is read in.
func rankOrder(scores []float64) []int32 {
	order := make([]int32, len(scores))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		switch {
		case scores[a] > scores[b]:
			return -1
		case scores[a] < scores[b]:
			return 1
		}
		return int(a - b)
	})
	return order
}

// topKKappa is the paper's top-k throttling rule: the k sources with the
// highest proximity get κ = 1, ties going to the lower index.
func topKKappa(prox []float64, k int) []float64 {
	idx := rankOrder(prox)
	kappa := make([]float64, len(prox))
	for _, i := range idx[:min(k, len(idx))] {
		kappa[i] = 1
	}
	return kappa
}

// defaultTopK is the throttled-source count the serving build derives:
// 2.7% of the sources, rounded.
func defaultTopK(n int) int { return int(0.027*float64(n) + 0.5) }

// pageRankResidual returns ‖α·Pᵀx + (1 − α·Σ Pᵀx)/n − x‖₁ for the
// page-level chain P that is uniform over each page's successors, the
// fixed point the slab solves compute (mass lost at dangling pages
// rejoins the uniform teleport). each replays the adjacency.
func pageRankResidual(n int, each func(fn func(u int32, succ []int32) error) error, x []float64, alpha float64) (float64, error) {
	y := make([]float64, n)
	err := each(func(u int32, succ []int32) error {
		if len(succ) == 0 {
			return nil
		}
		w := x[u] / float64(len(succ))
		for _, v := range succ {
			y[v] += w
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, v := range y {
		sum += v
	}
	tele := (1 - alpha*sum) / float64(n)
	var r float64
	for i := range y {
		r += math.Abs(alpha*y[i] + tele - x[i])
	}
	return r, nil
}

// residualTol derives the bound a solver's output must meet. The solvers
// stop once two successive iterates are within tol in L2; the operator
// contracts L1 distances by α, so the fixed-point residual of the
// returned iterate is at most α·√n·tol in L1. A float32 solve also
// rounds the operand and the iterate to float32, which adds up to a few
// units of 2⁻²⁴ of the vector's unit mass.
func residualTol(n int, alpha, tol float64, f32 bool) float64 {
	b := alpha * math.Sqrt(float64(n)) * tol
	if f32 {
		return b + 4*math.Ldexp(1, -24)
	}
	return b + 1e-12
}

// meanPosition returns the mean 0-based rank position of ids under
// scores (position 0 is the highest score; ties go to the lower id).
func meanPosition(scores []float64, ids []int32) float64 {
	order := rankOrder(scores)
	pos := make([]int32, len(scores))
	for p, id := range order {
		pos[id] = int32(p)
	}
	var s float64
	for _, id := range ids {
		s += float64(pos[id])
	}
	return s / float64(len(ids))
}

// checkSpamDemotion requires the labelled spam sources to sit lower on
// average under SRSR than under source PageRank.
func checkSpamDemotion(srsr, pagerank []float64, spam []int32) error {
	if len(spam) == 0 {
		return checkf("no labelled spam sources")
	}
	a, b := meanPosition(srsr, spam), meanPosition(pagerank, spam)
	if !(a > b) {
		return checkf("spam mean position %.1f under srsr, %.1f under pagerank: not demoted", a, b)
	}
	return nil
}

// l1 returns ‖a − b‖₁.
func l1(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// checkSourceGraphsEqual compares two derived source graphs bit for bit.
func checkSourceGraphsEqual(a, b *source.Graph) error {
	switch {
	case !slices.Equal(a.Labels, b.Labels):
		return checkf("source labels differ")
	case !slices.Equal(a.PageCount, b.PageCount):
		return checkf("page counts differ")
	case a.NumEdges != b.NumEdges:
		return checkf("edge counts differ: %d vs %d", a.NumEdges, b.NumEdges)
	case a.Counts.Rows != b.Counts.Rows || a.T.Rows != b.T.Rows:
		return checkf("matrix shapes differ")
	}
	for _, m := range []struct {
		name string
		x, y interface {
			Row(int) ([]int32, []float64)
		}
		rows int
	}{{"counts", a.Counts, b.Counts, a.Counts.Rows}, {"transition", a.T, b.T, a.T.Rows}} {
		for i := 0; i < m.rows; i++ {
			ca, va := m.x.Row(i)
			cb, vb := m.y.Row(i)
			if !slices.Equal(ca, cb) || !bitsEqual(va, vb) {
				return checkf("%s row %d differs", m.name, i)
			}
		}
	}
	return nil
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// topEntry mirrors one entry of a /v1/topk body.
type topEntry struct {
	Source int32   `json:"source"`
	Label  string  `json:"label"`
	Score  float64 `json:"score"`
	Rank   int     `json:"rank"`
}

type topBody struct {
	Version uint64     `json:"version"`
	Algo    string     `json:"algo"`
	N       int        `json:"n"`
	Results []topEntry `json:"results"`
}

// expectedTop is the benchmark's own top-n of one score vector.
type expectedTop struct {
	ids    []int32
	scores []float64
	labels []string
}

// newExpectedTop orders scores (descending, ties to the lower id) and
// keeps the first n entries.
func newExpectedTop(scores []float64, labels []string, n int) expectedTop {
	order := rankOrder(scores)
	order = order[:min(n, len(order))]
	e := expectedTop{ids: order}
	for _, id := range order {
		e.scores = append(e.scores, scores[id])
		e.labels = append(e.labels, labels[id])
	}
	return e
}

// checkTopBody verifies one /v1/topk body: the version and n it should
// carry, scores that never increase, and entries equal to the score
// vector's own top-n.
func checkTopBody(body []byte, version uint64, n int, want expectedTop) error {
	var b topBody
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&b); err != nil {
		return checkf("top-k body does not decode: %v", err)
	}
	if b.Version != version {
		return checkf("top-k body has version %d, want %d", b.Version, version)
	}
	n = min(n, len(want.ids))
	if b.N != n || len(b.Results) != n {
		return checkf("top-k body has n=%d and %d results, want %d", b.N, len(b.Results), n)
	}
	for i, e := range b.Results {
		if i > 0 && e.Score > b.Results[i-1].Score {
			return checkf("top-k scores increase at position %d", i)
		}
		if e.Source != want.ids[i] || e.Score != want.scores[i] || e.Label != want.labels[i] || e.Rank != i+1 {
			return checkf("top-k entry %d is %+v, want source %d score %v rank %d", i, e, want.ids[i], want.scores[i], i+1)
		}
	}
	return nil
}
