package main

import (
	"fmt"
	"slices"
	"time"

	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/server"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// coldRankScale sizes the cold-rank phase's corpus: UK2002 at this
// scale has about 2.1 million links over 9,800 sources.
const coldRankScale = 0.1

// alpha is the damping factor every solve uses (the serving default).
const alpha = 0.85

// readPassesPerRound is the number of passes over the read mix after
// each pair of publishes in the cold-rank phase.
const readPassesPerRound = 16

// coldPhase ranks an in-memory page graph into a published snapshot in
// both precision lanes, as srserve does at start, and then reads the
// snapshot with no writer beside the reader.
type coldPhase struct {
	preset       gen.Preset
	cfg          gen.Config
	ds           *gen.Dataset
	pg           *pagegraph.Graph
	spam         []int32
	store        *server.Store
	rd           *reader
	build, bld32 server.BuildConfig
	last, last32 *server.Snapshot
}

func (c *coldPhase) setup(r *run) (err error) {
	c.ds = nil // so that at most one corpus is live while the next is made
	c.ds, err = gen.Generate(c.cfg)
	return err
}

func (c *coldPhase) prepare(r *run) error {
	c.pg, c.spam, c.store = c.ds.Pages, c.ds.SpamSources, server.NewStore(nil)
	fmt.Fprintf(r.log, "perfbench: cold-rank corpus: %d pages, %d links, %d sources, %d spam\n",
		c.pg.NumPages(), c.pg.NumLinks(), c.pg.NumSources(), len(c.spam))
	mix, err := newReadMix(r.seed, c.pg.NumSources())
	if err != nil {
		return err
	}
	c.rd = newReader(server.New(c.store, server.Config{}).Handler(), c.store, mix, 4)
	c.build = server.BuildConfig{Name: string(c.preset), Workers: r.workers}
	c.bld32 = c.build
	c.bld32.Precision = linalg.Float32
	return nil
}

func (c *coldPhase) begin() { c.rd.restart() }

func (c *coldPhase) close() {}

func (c *coldPhase) publish(r *run, cfg server.BuildConfig) (*server.Snapshot, timing, error) {
	var snap *server.Snapshot
	d, err := timeCall(r.cpu, func() (err error) {
		if snap, err = server.BuildSnapshot(c.pg, c.spam, cfg); err != nil {
			return err
		}
		c.store.Publish(snap)
		return nil
	})
	r.op("rank "+cfg.Precision.String(), err)
	return snap, d, err
}

// round publishes a snapshot in each precision, then reads; it returns
// the phase's peak RSS.
func (c *coldPhase) round(r *run, _ int, traced bool, s samples, rss *rssSampler) (int64, error) {
	rss.reset()
	if traced {
		if err := tracedColdRound(r, c.pg, c.spam, c.store, s); err != nil {
			return 0, err
		}
	} else {
		snap, d, err := c.publish(r, c.build)
		if err != nil {
			return 0, err
		}
		c.last = snap
		s.addTiming("rank_s", d)
		snap, d, err = c.publish(r, c.bld32)
		if err != nil {
			return 0, err
		}
		c.last32 = snap
		s.addTiming("rank_f32_s", d)
	}
	for i := 0; i < readPassesPerRound; i++ {
		c.rd.pass()
	}
	return rss.read(), nil
}

func (c *coldPhase) finish(r *run, s samples) {
	c.rd.report(r)
	r.setE2E("rank_s", "cpu_s", s.median("rank_s"))
	r.setE2E("rank_f32_s", "cpu_s", s.median("rank_f32_s"))
	r.setE2E("read_p50_s", "s", c.rd.lat.quantile(0.5))
	if r.tr != nil {
		setColdLayers(r, s, c.rd)
	}
}

// check checks the last untraced round's snapshots.
func (c *coldPhase) check(r *run) error {
	cons := deriveConsensus(c.pg)
	checkSRSR(r, "float64", cons, c.last, c.spam, false)
	checkSRSR(r, "float32", cons, c.last32, c.spam, true)
	r.op("spam demotion", checkSpamDemotion(c.last.Set(server.AlgoSRSR).ScoresView(),
		c.last.Set(server.AlgoPageRank).ScoresView(), c.spam))
	return nil
}

// linalgTol is the convergence threshold the serving build's solves use
// at each precision.
func linalgTol(f32 bool) float64 {
	if f32 {
		return linalg.Float32Tol
	}
	return 1e-9
}

// checkSRSR checks a published snapshot's SRSR vector: the proximity
// vector it publishes solves the paper's inverse walk, κ is the top-k of
// that vector, and σ solves σ = α·T″ᵀσ + (1−α)c for the T″ the benchmark
// derives from the page graph with that κ.
func checkSRSR(r *run, lane string, c consensus, snap *server.Snapshot, spam []int32, f32 bool) {
	n := c.n
	ws := server.WarmStartFrom(snap)
	prox := ws.Proximity
	if len(prox) != n {
		r.op(lane+" srsr proximity", checkf("published proximity has %d entries, want %d", len(prox), n))
		return
	}
	res := proximityResidual(c, spam, prox, alpha)
	var err error
	if lim := residualTol(n, alpha, linalgTol(false), false); res > lim {
		err = checkf("proximity residual %.3g above %.3g", res, lim)
	}
	r.op(lane+" srsr proximity", err)
	err = nil
	if snap.KappaTopK() != defaultTopK(n) {
		err = checkf("snapshot throttles %d sources, want %d", snap.KappaTopK(), defaultTopK(n))
	}
	r.op(lane+" srsr kappa count", err)
	r.op(lane+" srsr residual", checkSigma(c, topKKappa(prox, defaultTopK(n)), snap.Set(server.AlgoSRSR).ScoresView(), f32))
}

// checkSigma checks σ against the fixed-point equation of T″(κ), within
// the bound the solver's tolerance at that precision implies.
func checkSigma(c consensus, kappa, sigma []float64, f32 bool) error {
	if len(sigma) != c.n {
		return checkf("srsr vector has %d entries, want %d", len(sigma), c.n)
	}
	res := srsrResidual(c.throttled(kappa), sigma, alpha)
	if lim := residualTol(c.n, alpha, linalgTol(f32), f32); !(res <= lim) {
		return checkf("srsr residual %.3g above %.3g", res, lim)
	}
	return nil
}

// trustedSeeds is the serving build's TrustRank seed rule: the ten
// non-spam sources with the most pages, ties to the lower id.
func trustedSeeds(sg *source.Graph, spam []int32) []int32 {
	ids := make([]int32, 0, sg.NumSources())
	for i := range sg.PageCount {
		if !slices.Contains(spam, int32(i)) {
			ids = append(ids, int32(i))
		}
	}
	slices.SortStableFunc(ids, func(a, b int32) int { return sg.PageCount[b] - sg.PageCount[a] })
	return ids[:min(10, len(ids))]
}

// tracedColdRound calls the layers one by one in BuildSnapshot's order,
// once per precision, under spans, and then times the bare solver and a
// one-worker SRSR as extra layer figures.
func tracedColdRound(r *run, pg *pagegraph.Graph, spam []int32, store *server.Store, s samples) error {
	tr := r.tr
	var kappa []float64
	var sg *source.Graph
	for _, prec := range []linalg.Precision{linalg.Float64, linalg.Float32} {
		sfx := ""
		if prec == linalg.Float32 {
			sfx = "_f32"
		}
		root, err := tr.do("server.build_snapshot"+sfx, func() error {
			sp, err := tr.do("source.build", func() (err error) {
				sg, err = source.Build(pg, source.Options{Workers: r.workers})
				return err
			})
			if err != nil {
				return err
			}
			s.add("source.alloc_bytes", float64(sp.AllocBytes))
			n := sg.NumSources()
			var prox linalg.Vector
			var pst linalg.IterStats
			if _, err := tr.do("throttle.proximity", func() (err error) {
				prox, pst, err = throttle.SpamProximity(sg.Structure(), spam, throttle.ProximityOptions{Workers: r.workers})
				return err
			}); err != nil {
				return err
			}
			s.add("throttle.proximity_iters", float64(pst.Iterations))
			tr.do("throttle.kappa", func() error {
				kappa = throttle.TopK(prox, defaultTopK(n))
				return nil
			})
			var srsr *core.Result
			if _, err := tr.do("core.srsr"+sfx, func() (err error) {
				srsr, err = core.Rank(sg, kappa, core.Config{Alpha: alpha, Workers: r.workers, Precision: prec})
				return err
			}); err != nil {
				return err
			}
			s.add("core.srsr"+sfx+"_iters", float64(srsr.Stats.Iterations))
			opt := rank.Options{Alpha: alpha, Workers: r.workers, Precision: prec}
			var pr, trr *rank.Result
			if _, err := tr.do("rank.pagerank"+sfx, func() (err error) {
				pr, err = rank.PageRank(sg.Structure(), opt)
				return err
			}); err != nil {
				return err
			}
			s.add("rank.pagerank"+sfx+"_iters", float64(pr.Stats.Iterations))
			if _, err := tr.do("rank.trustrank"+sfx, func() (err error) {
				trr, err = rank.TrustRank(sg.Structure(), trustedSeeds(sg, spam), opt)
				return err
			}); err != nil {
				return err
			}
			s.add("rank.trustrank"+sfx+"_iters", float64(trr.Stats.Iterations))
			_, err = tr.do("server.finalize", func() error {
				sets := map[server.Algo]*server.ScoreSet{
					server.AlgoSRSR:      server.NewScoreSet(srsr.Scores, srsr.Stats),
					server.AlgoPageRank:  server.NewScoreSet(pr.Scores, pr.Stats),
					server.AlgoTrustRank: server.NewScoreSet(trr.Scores, trr.Stats),
				}
				snap, err := server.NewSnapshot(server.CorpusInfo{Pages: pg.NumPages(), Links: pg.NumLinks(), SpamLabeled: len(spam)},
					sg.Labels, sg.PageCount, defaultTopK(n), sets, time.Now())
				if err != nil {
					return err
				}
				store.Publish(snap)
				return nil
			})
			return err
		})
		r.op("traced rank "+prec.String(), err)
		if err != nil {
			return err
		}
		s.add("traced_rank"+sfx+"_s", float64(root.CPU)/1e9)
	}

	// Layer figures outside BuildSnapshot: SRSR on one worker (the
	// scaling baseline) and the bare stationary solve of T″ᵀ at each
	// precision, priced by the bytes the kernel must move.
	if _, err := tr.do("core.srsr_w1", func() error {
		_, err := core.Rank(sg, kappa, core.Config{Alpha: alpha, Workers: 1})
		return err
	}); err != nil {
		return err
	}
	tpp, err := throttle.Apply(sg.T, kappa)
	if err != nil {
		return err
	}
	tppT := tpp.TransposeParallel(r.workers)
	n, nnz := tppT.Rows, tppT.NNZ()
	tele := linalg.NewUniformVector(n)
	var st linalg.IterStats
	sp, err := tr.do("linalg.solve", func() (err error) {
		_, st, err = linalg.PowerMethodT(tppT, alpha, tele, nil, linalg.SolverOptions{Workers: r.workers})
		return err
	})
	if err != nil {
		return err
	}
	s.add("linalg.solve_gb_s", gbPerSec(int64(st.Iterations)*fusedPowerBytes(n, nnz, 8, 8), sp.End-sp.Start))
	m32 := linalg.NewCSR32(tppT)
	sp, err = tr.do("linalg.solve_f32", func() (err error) {
		_, st, err = linalg.PowerMethodT32(m32, alpha, tele, nil, linalg.SolverOptions{Workers: r.workers})
		return err
	})
	if err != nil {
		return err
	}
	s.add("linalg.solve_f32_gb_s", gbPerSec(int64(st.Iterations)*fusedPowerBytes(n, nnz, 4, 4), sp.End-sp.Start))
	return nil
}

// matrixBytes is the compulsory traffic of one pass over a CSR operand
// with valW-byte values: row pointers, column indexes, values.
func matrixBytes(rows, nnz int, valW int64) int64 {
	return 8*int64(rows) + 4*int64(nnz) + valW*int64(nnz)
}

// fusedPowerBytes is one fused power iteration with an explicit
// teleport vector: the matrix plus seven passes over vecW-wide vectors.
func fusedPowerBytes(rows, nnz int, valW, vecW int64) int64 {
	return matrixBytes(rows, nnz, valW) + 7*vecW*int64(rows)
}

// fusedUniformBytes is one fused power iteration with the implicit
// uniform teleport: the matrix plus six vector passes.
func fusedUniformBytes(rows, nnz int, valW, vecW int64) int64 {
	return matrixBytes(rows, nnz, valW) + 6*vecW*int64(rows)
}

func gbPerSec(bytes, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(bytes) / float64(ns)
}

// setColdLayers turns the cold-rank phase's traced samples into layer
// metrics.
func setColdLayers(r *run, s samples, rd *reader) {
	tr := r.tr
	for _, name := range []string{"source.build", "throttle.proximity", "core.srsr", "core.srsr_w1", "core.srsr_f32",
		"rank.pagerank", "rank.trustrank", "rank.pagerank_f32", "rank.trustrank_f32", "server.finalize"} {
		r.setLayer(name+"_s", "cpu_s", median(tr.selfSeconds(name)))
	}
	r.setLayer("server.finalize_wall_s", "s", median(tr.selfWallSeconds("server.finalize")))
	r.setLayer("wall.rank_s", "s", s.median("wall.rank_s"))
	r.setLayer("wall.rank_f32_s", "s", s.median("wall.rank_f32_s"))
	for _, name := range []string{"source.alloc_bytes"} {
		r.setLayer(name, "bytes", s.median(name))
	}
	for _, name := range []string{"throttle.proximity_iters", "core.srsr_iters", "core.srsr_f32_iters",
		"rank.pagerank_iters", "rank.trustrank_iters", "rank.pagerank_f32_iters", "rank.trustrank_f32_iters"} {
		r.setLayer(name, "count", s.median(name))
	}
	r.setLayer("linalg.solve_gb_s", "GB/s", s.median("linalg.solve_gb_s"))
	r.setLayer("linalg.solve_f32_gb_s", "GB/s", s.median("linalg.solve_f32_gb_s"))
	r.setLayer("server.read_p99_s", "s", rd.lat.quantile(0.99))
	r.setLayer("server.read_allocs", "count", rd.allocsPerRead())
}
