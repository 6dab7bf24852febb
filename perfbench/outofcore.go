package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rank"
	"sourcerank/internal/webgraph"
)

// outOfCoreScale sizes the out-of-core phase's corpus: UK2002 at this
// scale has about 430,000 links over 68,000 pages.
const outOfCoreScale = 0.02

// countingSource counts the adjacency passes a slab build makes.
type countingSource struct {
	webgraph.AdjacencySource
	passes int
}

func (c *countingSource) EachAdjacency(fn func(u int32, succ []int32) error) error {
	c.passes++
	return c.AdjacencySource.EachAdjacency(fn)
}

// slabSet is what one round's slab build committed.
type slabSet struct {
	dir              string
	compressed       *webgraph.Compressed
	f64, f32         webgraph.SlabPaths
	bytes64, bytes32 int64 // P + Pᵀ file sizes per precision
}

// buildSlabs is the measured slab build: generated crawl (spill runs) to
// committed float64 and float32 P/Pᵀ slabs. In a traced run each step is
// a span, and the adjacency passes and allocations are counted.
func buildSlabs(r *run, traced bool, corpus *gen.Corpus, dir string, s samples) (slabSet, error) {
	set := slabSet{dir: dir}
	if err := os.MkdirAll(filepath.Join(dir, "f32"), 0o755); err != nil {
		return set, err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"webgraph.compress", func() (err error) {
			set.compressed, err = webgraph.CompressFrom(corpus)
			return err
		}},
		{"webgraph.slab_build_f64", func() (err error) {
			src := &countingSource{AdjacencySource: set.compressed}
			set.f64, err = webgraph.BuildTransitionSlabsFrom(nil, dir, src, webgraph.SlabOptions{})
			s.add("webgraph.slab_source_passes_f64", float64(src.passes))
			return err
		}},
		{"webgraph.slab_build_f32", func() (err error) {
			src := &countingSource{AdjacencySource: set.compressed}
			set.f32, err = webgraph.BuildTransitionSlabsFrom(nil, filepath.Join(dir, "f32"), src,
				webgraph.SlabOptions{Precision: linalg.SlabFloat32})
			s.add("webgraph.slab_source_passes_f32", float64(src.passes))
			return err
		}},
	}
	if !traced {
		for _, st := range steps {
			if err := st.fn(); err != nil {
				return set, err
			}
		}
	} else {
		var alloc, gcs float64
		root, err := r.tr.do("webgraph.slab_build", func() error {
			for _, st := range steps {
				sp, err := r.tr.do(st.name, st.fn)
				if err != nil {
					return err
				}
				if st.name != "webgraph.compress" {
					alloc += float64(sp.AllocBytes)
					gcs += float64(sp.GCs)
				}
			}
			return nil
		})
		if err != nil {
			return set, err
		}
		s.add("webgraph.slab_alloc_bytes", alloc)
		s.add("webgraph.slab_gc_cycles", gcs)
		s.add("traced_slab_build_s", float64(root.CPU)/1e9)
	}
	var err error
	if set.bytes64, err = fileSizes(set.f64.P, set.f64.PT); err != nil {
		return set, err
	}
	set.bytes32, err = fileSizes(set.f32.P, set.f32.PT)
	return set, err
}

func tvSec(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func fileSizes(paths ...string) (int64, error) {
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// slabSolve is one out-of-core solve: a Pᵀ slab opened under a residency
// budget and solved by the uniform-teleport power method, as the
// out-of-core path does. openS is the open's CPU time; solveWallS the
// solve's wall time, which prices its bandwidth.
type slabSolve struct {
	x                 linalg.Vector
	stats             linalg.IterStats
	openS, solveWallS float64
	rows, nnz         int
}

func solveSlab(clock cpuClock, path string, f32 bool, budget int64, workers int) (slabSolve, error) {
	var out slabSolve
	opt := linalg.SlabOpenOptions{MaxResident: budget}
	sopt := linalg.SolverOptions{Workers: workers}
	c0 := clock()
	if f32 {
		s, err := linalg.OpenSlabCSR32(path, opt)
		if err != nil {
			return out, err
		}
		defer s.Close()
		out.openS = float64(clock()-c0) / 1e9
		t0 := time.Now()
		m := s.Matrix()
		out.rows, out.nnz = m.Rows, len(m.Cols)
		out.x, out.stats, err = linalg.PowerMethodT32Uniform(m, alpha, sopt)
		out.solveWallS = time.Since(t0).Seconds()
		return out, err
	}
	s, err := linalg.OpenSlabCSR(path, opt)
	if err != nil {
		return out, err
	}
	defer s.Close()
	out.openS = float64(clock()-c0) / 1e9
	t0 := time.Now()
	m := s.Matrix()
	out.rows, out.nnz = m.Rows, m.NNZ()
	out.x, out.stats, err = linalg.PowerMethodTUniform(m, alpha, sopt)
	out.solveWallS = time.Since(t0).Seconds()
	return out, err
}

// oocPhase lowers a streamed crawl (spill runs) to committed float64
// and float32 P/Pᵀ slabs and solves each Pᵀ slab under a residency
// budget of the f64 slab bytes / 4, on one P and one worker.
type oocPhase struct {
	cfg      gen.Config
	corpus   *gen.Corpus
	gens     int
	last     slabSet
	budget   int64
	x64, x32 linalg.Vector
	iters    map[bool][]int
}

// oocWorkers is the out-of-core phase's worker count and GOMAXPROCS.
const oocWorkers = 1

func (o *oocPhase) setup(r *run) error {
	if o.corpus != nil {
		o.corpus.Remove()
		o.corpus = nil
	}
	o.gens++
	dir := filepath.Join(r.dir, fmt.Sprintf("spill%d", o.gens))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	var err error
	o.corpus, err = gen.GenerateStream(o.cfg, gen.StreamOptions{Dir: dir, Workers: oocWorkers})
	return err
}

func (o *oocPhase) prepare(r *run) error {
	fmt.Fprintf(r.log, "perfbench: out-of-core corpus: %d pages, %d links, %d sources, %d spill runs; GOMAXPROCS 1 and one worker\n",
		o.corpus.NumPages, o.corpus.NumLinks, o.corpus.NumSources, len(o.corpus.Runs()))
	o.iters = map[bool][]int{}
	return nil
}

func (o *oocPhase) begin() {}

func (o *oocPhase) close() {
	if o.corpus != nil {
		o.corpus.Remove()
	}
	if o.last.dir != "" {
		os.RemoveAll(o.last.dir)
	}
}

// round builds the slabs and solves them; it returns the phase's peak
// RSS.
func (o *oocPhase) round(r *run, round int, traced bool, s samples, rss *rssSampler) (int64, error) {
	settle()
	rss.reset()
	var set slabSet
	var ru0, ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	d, err := timeCall(r.cpu, func() (err error) {
		set, err = buildSlabs(r, traced, o.corpus, filepath.Join(r.dir, fmt.Sprintf("slabs%d", round+1)), s)
		return err
	})
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	r.op("slab build", err)
	if err != nil {
		return 0, err
	}
	if !traced {
		s.addTiming("slab_build_s", d)
	}
	buildPeak := rss.read()
	s.add("sysmem.build_rss_bytes", float64(buildPeak))
	if o.last.dir != "" {
		os.RemoveAll(o.last.dir)
	}
	o.last = set
	o.budget = set.bytes64 / 4

	// The solve phase's peak starts once the build's garbage is
	// returned.
	settle()
	rss.reset()
	for _, f32 := range []bool{false, true} {
		path, name, valW := set.f64.PT, "slab_solve", int64(8)
		if f32 {
			path, name, valW = set.f32.PT, "slab_solve_f32", 4
		}
		settle()
		var sol slabSolve
		solve := func() (err error) {
			sol, err = solveSlab(r.cpu, path, f32, o.budget, oocWorkers)
			return err
		}
		if traced {
			_, err := r.tr.do("linalg."+name, solve)
			r.op(name, err)
		} else {
			d, err := timeCall(r.cpu, solve)
			r.op(name, err)
			s.addTiming(name+"_s", d)
		}
		if sol.x == nil {
			return 0, fmt.Errorf("%s failed", name)
		}
		s.add("linalg.slab_open_s", sol.openS)
		it := sol.stats.Iterations
		o.iters[f32] = append(o.iters[f32], it)
		s.add("linalg."+name+"_iters", float64(it))
		gb := gbPerSec(int64(it)*fusedUniformBytes(sol.rows, sol.nnz, valW, valW), int64(sol.solveWallS*1e9))
		if f32 {
			o.x32 = sol.x
			s.add("linalg.slab_f32_gb_s", gb)
		} else {
			o.x64 = sol.x
			s.add("linalg.slab_gb_s", gb)
		}
	}
	solvePeak := rss.read()
	s.add("sysmem.solve_rss_bytes", float64(solvePeak))
	fmt.Fprintf(r.log, "perfbench: round %d: slab build %.3f s CPU (%.3f user, %.3f sys, %d minor faults), %.3f s wall, build peak %.1f MiB, solve peak %.1f MiB\n",
		round+1, d.cpu, tvSec(ru1.Utime)-tvSec(ru0.Utime), tvSec(ru1.Stime)-tvSec(ru0.Stime), ru1.Minflt-ru0.Minflt, d.wall,
		float64(buildPeak)/(1<<20), float64(solvePeak)/(1<<20))
	return max(buildPeak, solvePeak), nil
}

func (o *oocPhase) finish(r *run, s samples) {
	fmt.Fprintf(r.log, "perfbench: slabs f64 P+Pt %.1f MiB, f32 P+Pt %.1f MiB, residency budget %.1f MiB; solves take %d (f64) and %d (f32) iterations\n",
		float64(o.last.bytes64)/(1<<20), float64(o.last.bytes32)/(1<<20), float64(o.budget)/(1<<20), o.iters[false][0], o.iters[true][0])
	r.setE2E("slab_build_s", "cpu_s", s.median("slab_build_s"))
	r.setE2E("slab_solve_s", "cpu_s", s.median("slab_solve_s"))
	r.setE2E("slab_solve_f32_s", "cpu_s", s.median("slab_solve_f32_s"))
	if r.tr == nil {
		return
	}
	for _, name := range []string{"webgraph.compress", "webgraph.slab_build_f64", "webgraph.slab_build_f32"} {
		r.setLayer(name+"_s", "cpu_s", median(r.tr.selfSeconds(name)))
	}
	for _, name := range []string{"slab_build_s", "slab_solve_s", "slab_solve_f32_s"} {
		r.setLayer("wall."+name, "s", s.median("wall."+name))
	}
	r.setLayer("webgraph.slab_alloc_bytes", "bytes", s.median("webgraph.slab_alloc_bytes"))
	r.setLayer("webgraph.slab_gc_cycles", "count", s.median("webgraph.slab_gc_cycles"))
	r.setLayer("webgraph.slab_source_passes", "count",
		s.median("webgraph.slab_source_passes_f64")+s.median("webgraph.slab_source_passes_f32"))
	r.setLayer("webgraph.slab_bytes", "bytes", float64(o.last.bytes64))
	r.setLayer("linalg.slab_open_s", "cpu_s", s.median("linalg.slab_open_s"))
	for _, name := range []string{"linalg.slab_solve_iters", "linalg.slab_solve_f32_iters"} {
		r.setLayer(name, "count", s.median(name))
	}
	r.setLayer("linalg.slab_gb_s", "GB/s", s.median("linalg.slab_gb_s"))
	r.setLayer("linalg.slab_f32_gb_s", "GB/s", s.median("linalg.slab_f32_gb_s"))
	r.setLayer("sysmem.build_rss_bytes", "bytes", s.median("sysmem.build_rss_bytes"))
	r.setLayer("sysmem.solve_rss_bytes", "bytes", s.median("sysmem.solve_rss_bytes"))
}

func (o *oocPhase) check(r *run) error {
	return checkOutOfCore(r, o.last, o.x64, o.x32, o.iters[false], o.iters[true])
}

// checkOutOfCore checks the last round's slabs and solves: each Pᵀ slab
// holds the transpose of the page chain read back from the compressed
// graph, each solve meets the PageRank fixed point of that chain, every
// round's solve took the same iterations, and the slab solves are
// bitwise equal to in-heap solves of the same precision.
func checkOutOfCore(r *run, set slabSet, x64, x32 linalg.Vector, iters64, iters32 []int) error {
	c := set.compressed
	n := c.NumNodes()
	r.op("float64 Pt slab contents", checkTransposeSlab(set.f64.PT, false, c))
	r.op("float32 Pt slab contents", checkTransposeSlab(set.f32.PT, true, c))
	for _, lane := range []struct {
		name  string
		x     linalg.Vector
		iters []int
		f32   bool
	}{{"float64", x64, iters64, false}, {"float32", x32, iters32, true}} {
		res, err := pageRankResidual(n, c.EachAdjacency, lane.x, alpha)
		if err == nil {
			if lim := residualTol(n, alpha, linalgTol(lane.f32), lane.f32); !(res <= lim) {
				err = checkf("slab solve residual %.3g above %.3g", res, lim)
			}
		}
		r.op(lane.name+" slab solve fixed point", err)
		for _, it := range lane.iters {
			var err error
			if it != lane.iters[0] {
				err = checkf("slab solve took %d iterations, an earlier round %d", it, lane.iters[0])
			}
			r.op(lane.name+" slab solve repeat", err)
		}
	}

	g, err := c.DecompressParallel(oocWorkers)
	if err != nil {
		return err
	}
	tt := rank.TransitionT(g)
	g = nil
	tele := linalg.NewUniformVector(tt.Rows)
	ref, _, err := linalg.PowerMethodT(tt, alpha, tele, nil, linalg.SolverOptions{Workers: oocWorkers})
	if err != nil {
		return err
	}
	r.op("float64 slab solve equals in-heap solve", checkBitwise(x64, ref))
	ref, _, err = linalg.PowerMethodT32(linalg.NewCSR32(tt), alpha, tele, nil, linalg.SolverOptions{Workers: oocWorkers})
	if err != nil {
		return err
	}
	r.op("float32 slab solve equals in-heap solve", checkBitwise(x32, ref))
	return nil
}

func checkBitwise(got, want []float64) error {
	if len(got) != len(want) {
		return checkf("%d scores, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return checkf("score %d is %v, in-heap solve has %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkTransposeSlab opens a committed Pᵀ slab and compares it with the
// transpose the benchmark builds from the adjacency: row v lists every
// page u linking to v, ascending, with weight 1/outdeg(u) (rounded to
// float32 in a float32 slab).
func checkTransposeSlab(path string, f32 bool, src webgraph.AdjacencySource) error {
	n := src.NumNodes()
	ptr := make([]int64, n+1)
	outdeg := make([]int32, n)
	if err := src.EachAdjacency(func(u int32, succ []int32) error {
		outdeg[u] = int32(len(succ))
		for _, v := range succ {
			ptr[v+1]++
		}
		return nil
	}); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		ptr[v+1] += ptr[v]
	}
	cols := make([]int32, ptr[n])
	fill := append([]int64(nil), ptr[:n]...)
	if err := src.EachAdjacency(func(u int32, succ []int32) error {
		for _, v := range succ {
			cols[fill[v]] = u
			fill[v]++
		}
		return nil
	}); err != nil {
		return err
	}
	weight := func(u int32) float64 {
		w := 1 / float64(outdeg[u])
		if f32 {
			return float64(float32(w))
		}
		return w
	}
	var (
		rowPtr  []int64
		colIdx  []int32
		valueAt func(int) float64
	)
	if f32 {
		s, err := linalg.OpenSlabCSR32(path, linalg.SlabOpenOptions{})
		if err != nil {
			return checkf("opening %s: %v", filepath.Base(path), err)
		}
		defer s.Close()
		m := s.Matrix()
		rowPtr, colIdx, valueAt = m.RowPtr, m.Cols, func(p int) float64 { return float64(m.Vals[p]) }
	} else {
		s, err := linalg.OpenSlabCSR(path, linalg.SlabOpenOptions{})
		if err != nil {
			return checkf("opening %s: %v", filepath.Base(path), err)
		}
		defer s.Close()
		m := s.Matrix()
		rowPtr, colIdx, valueAt = m.RowPtr, m.Cols, func(p int) float64 { return m.Vals[p] }
	}
	if len(rowPtr) != n+1 || len(colIdx) != len(cols) {
		return checkf("slab is %d rows and %d entries, want %d and %d", len(rowPtr)-1, len(colIdx), n, len(cols))
	}
	for v := 0; v <= n; v++ {
		if rowPtr[v] != ptr[v] {
			return checkf("slab row %d starts at %d, want %d", v, rowPtr[v], ptr[v])
		}
	}
	for p, u := range cols {
		if colIdx[p] != u || valueAt(p) != weight(u) {
			return checkf("slab entry %d is (%d, %v), want (%d, %v)", p, colIdx[p], valueAt(p), u, weight(u))
		}
	}
	return nil
}
