package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"

	"sourcerank/internal/gen"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/server"
	"sourcerank/internal/source"
	"sourcerank/internal/stream"
)

// refreshScale sizes the crawl-refresh phase's corpus: UK2002 at this
// scale has about 1.06 million links over 4,900 sources.
const refreshScale = 0.05

// churnShare and recrawlShare size the two batch kinds as a fraction of
// the corpus's links. They are levels of the repository's stream
// benchmark (cmd/bench -mode stream): its rewire_0.1pct and
// dup_recrawl_1pct levels.
const (
	churnShare   = 1.0 / 1000
	recrawlShare = 1.0 / 100
)

// crawler makes crawler-shaped delta batches from a seeded generator,
// in the shapes of cmd/bench -mode stream.
type crawler struct {
	rng   *gen.RNG
	pg    *pagegraph.Graph
	bySrc [][]pagegraph.PageID // pages of each source, kept current as pages are added
}

func newCrawler(seed uint64, pg *pagegraph.Graph) *crawler {
	c := &crawler{rng: gen.NewRNG(seed ^ 0xc0ffee), pg: pg, bySrc: make([][]pagegraph.PageID, pg.NumSources())}
	for p := 0; p < pg.NumPages(); p++ {
		s := pg.SourceOf(pagegraph.PageID(p))
		c.bySrc[s] = append(c.bySrc[s], pagegraph.PageID(p))
	}
	return c
}

// linkedPage draws a page with at least one out-link.
func (c *crawler) linkedPage() (pagegraph.PageID, []pagegraph.PageID) {
	for {
		p := pagegraph.PageID(c.rng.Intn(c.pg.NumPages()))
		if out := c.pg.OutLinks(p); len(out) > 0 {
			return p, out
		}
	}
}

// changeBatch changes the consensus operator. It is cmd/bench's rewire
// batch of links followed by its drift batch of as many links. Of every
// ten rewire links, one is a new page with one out-link, one a content
// touch, and eight rewire one out-link of a page (one removed, one added
// to a random page); rewires move the source topology and with it spam
// proximity, so κ can move. A drift link is another page of the same
// source linking into a source it already endorses, so a consensus
// count grows and the sparsity holds.
func (c *crawler) changeBatch(links int) []stream.Delta {
	var ds []stream.Delta
	pages := c.pg.NumPages()
	removed := map[pagegraph.PageID]bool{}
	for i := 0; i < links; i++ {
		switch c.rng.Intn(10) {
		case 0:
			s := pagegraph.SourceID(c.rng.Intn(c.pg.NumSources()))
			ds = append(ds, stream.AddPage(s), stream.AddEdge(pagegraph.PageID(pages), pagegraph.PageID(c.rng.Intn(pages))))
			c.bySrc[s] = append(c.bySrc[s], pagegraph.PageID(pages))
			pages++
		case 1:
			ds = append(ds, stream.TouchPage(pagegraph.PageID(c.rng.Intn(pages))))
		default:
			p, out := c.linkedPage()
			if removed[p] {
				continue
			}
			removed[p] = true
			ds = append(ds, stream.RemoveEdge(p, out[c.rng.Intn(len(out))]),
				stream.AddEdge(p, pagegraph.PageID(c.rng.Intn(pages))))
		}
	}
	for i := 0; i < links; i++ {
		p, out := c.linkedPage()
		if d, ok := c.driftLink(p, out[c.rng.Intn(len(out))]); ok {
			ds = append(ds, d)
		}
	}
	return ds
}

// driftLink finds a page of p's source, other than those already linking
// into q's source, and links it to q.
func (c *crawler) driftLink(p, q pagegraph.PageID) (stream.Delta, bool) {
	sib := c.bySrc[c.pg.SourceOf(p)]
	tsrc := c.pg.SourceOf(q)
	for tries := 0; tries < 8; tries++ {
		p2 := sib[c.rng.Intn(len(sib))]
		if int(p2) >= c.pg.NumPages() {
			continue // added in this batch, not yet in the graph
		}
		if !slices.ContainsFunc(c.pg.OutLinks(p2), func(t pagegraph.PageID) bool { return c.pg.SourceOf(t) == tsrc }) {
			return stream.AddEdge(p2, q), true
		}
	}
	return stream.Delta{}, false
}

// recrawlBatch is cmd/bench's duplicate re-crawl: nine in ten links
// repeat an existing out-link, one in ten is a content touch. No
// page's set of target sources changes, so every solve may be skipped.
func (c *crawler) recrawlBatch(links int) []stream.Delta {
	var ds []stream.Delta
	for i := 0; i < links; i++ {
		if c.rng.Intn(10) == 0 {
			ds = append(ds, stream.TouchPage(pagegraph.PageID(c.rng.Intn(c.pg.NumPages()))))
			continue
		}
		p, out := c.linkedPage()
		ds = append(ds, stream.AddEdge(p, out[c.rng.Intn(len(out))]))
	}
	return ds
}

// refreshSetup is what the crawl-refresh phase sets up: the pipeline
// after its first cold refresh, publishing into store.
type refreshSetup struct {
	ds    *gen.Dataset
	store *server.Store
	p     *stream.Pipeline
}

func setupRefresh(cfg gen.Config, name string) (refreshSetup, error) {
	ds, err := gen.Generate(cfg)
	if err != nil {
		return refreshSetup{}, err
	}
	ds.Name = name
	store := server.NewStore(nil)
	p, err := stream.NewPipeline(ds.Pages, stream.Options{Spam: ds.SpamSources, Workers: 1, Name: ds.Name, Store: store})
	if err != nil {
		return refreshSetup{}, err
	}
	if _, _, err := p.Refresh(); err != nil {
		return refreshSetup{}, err
	}
	return refreshSetup{ds, store, p}, nil
}

// crawlPhase feeds crawler batches through a stream.Pipeline with one
// refresh worker and publishes each, while one closed-loop reader reads
// the store through the server's handler.
type crawlPhase struct {
	preset gen.Preset
	cfg    gen.Config
	refreshSetup
	cr                     *crawler
	rd                     *reader
	change, recrawl        int
	last                   *server.Snapshot
	refreshes, compactions int
}

func (c *crawlPhase) setup(r *run) (err error) {
	c.refreshSetup = refreshSetup{} // so that at most one corpus is live while the next is made
	c.refreshSetup, err = setupRefresh(c.cfg, string(c.preset))
	return err
}

func (c *crawlPhase) prepare(r *run) error {
	pg := c.ds.Pages
	links := pg.NumLinks()
	c.cr = newCrawler(r.seed, pg)
	c.change, c.recrawl = max(1, int(float64(links)*churnShare)), max(1, int(float64(links)*recrawlShare))
	fmt.Fprintf(r.log, "perfbench: crawl-refresh corpus: %d pages, %d links, %d sources; "+
		"change batches of %d rewire and %d drift links, re-crawl batches of %d\n",
		pg.NumPages(), links, pg.NumSources(), c.change, c.change, c.recrawl)
	mix, err := newReadMix(r.seed, pg.NumSources())
	if err != nil {
		return err
	}
	c.rd = newReader(server.New(c.store, server.Config{}).Handler(), c.store, mix, 8)
	return nil
}

func (c *crawlPhase) begin() { c.rd.restart() }

func (c *crawlPhase) close() {}

// startReader starts the closed-loop reader on a thread of its own and
// points r's CPU clock at the process's CPU time minus that thread's, so
// that the refresh's CPU time leaves the reader out. The returned
// function stops the reader, waits for it and restores the clock.
func (c *crawlPhase) startReader(r *run) func() {
	stop := make(chan struct{})
	tids := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tids <- syscall.Gettid()
		for {
			select {
			case <-stop:
				return
			default:
				c.rd.pass()
			}
		}
	}()
	readerCPU := threadCPU(<-tids)
	r.cpu = func() int64 { return processCPU() - readerCPU() }
	return sync.OnceFunc(func() {
		r.cpu = processCPU
		close(stop)
		wg.Wait()
	})
}

// round applies, refreshes and publishes one change batch and one
// re-crawl batch beside the reader; it returns the phase's peak RSS.
func (c *crawlPhase) round(r *run, _ int, traced bool, s samples, rss *rssSampler) (int64, error) {
	rss.reset()
	stop := c.startReader(r)
	defer stop()
	if err := c.cycle(r, "change", c.cr.changeBatch(c.change), traced, s); err != nil {
		return 0, err
	}
	if err := c.cycle(r, "recrawl", c.cr.recrawlBatch(c.recrawl), traced, s); err != nil {
		return 0, err
	}
	return rss.read(), nil
}

func (c *crawlPhase) cycle(r *run, kind string, deltas []stream.Delta, traced bool, s samples) error {
	var (
		snap  *server.Snapshot
		stats stream.RefreshStats
		apply float64
	)
	var m0 runtime.MemStats
	if traced {
		m0 = readMem()
	}
	d, err := timeCall(r.cpu, func() error {
		do := func(name string, fn func() error) (float64, error) {
			if traced {
				sp, err := r.tr.do(name, fn)
				return float64(sp.CPU) / 1e9, err
			}
			c0 := r.cpu()
			err := fn()
			return float64(r.cpu()-c0) / 1e9, err
		}
		var err error
		if apply, err = do("stream.apply", func() error {
			_, err := c.p.Apply(deltas)
			return err
		}); err != nil {
			return err
		}
		refresh := "stream.refresh"
		if kind == "recrawl" {
			refresh = "stream.recrawl_refresh"
		}
		_, err = do(refresh, func() (err error) {
			snap, stats, err = c.p.Refresh()
			return err
		})
		return err
	})
	r.op(kind+" refresh", err)
	if err != nil {
		return err
	}
	if traced {
		s.add("traced_"+kind+"_s", d.cpu)
	} else {
		s.addTiming(kind+"_s", d)
	}
	c.last = snap
	c.refreshes++
	if stats.Compacted {
		c.compactions++
		s.add("compacted_"+kind, 1)
	}
	skipped := 0
	for _, b := range []bool{stats.SolveSkipped, stats.PageRankSkipped, stats.TrustRankSkipped} {
		if b {
			skipped++
		}
	}
	s.add("stream.solves_skipped_"+kind, float64(skipped))
	// The pipeline times its publish step on the wall clock.
	s.add("stream.publish_wall_s", stats.Publish.Seconds())
	if traced && kind == "change" {
		// All goroutines' allocations, the reader's included.
		s.add("stream.alloc_bytes", float64(diffMem(m0, readMem()).allocBytes))
	}
	if kind == "change" {
		s.add("stream.apply_s", apply)
		s.add("stream.kappa_changed", float64(stats.KappaChanged))
		for _, a := range mixAlgos {
			s.add("stream."+string(a)+"_iters", float64(snap.Set(a).Stats().Iterations))
		}
	}
	return nil
}

func (c *crawlPhase) finish(r *run, s samples) {
	c.rd.report(r)
	fmt.Fprintf(r.log, "perfbench: %d change refreshes (%d compacted, median iterations srsr %g, pagerank %g, trustrank %g), %d re-crawl refreshes (%d compacted)\n",
		len(s["stream.solves_skipped_change"]), len(s["compacted_change"]), s.median("stream.srsr_iters"),
		s.median("stream.pagerank_iters"), s.median("stream.trustrank_iters"),
		len(s["stream.solves_skipped_recrawl"]), len(s["compacted_recrawl"]))
	r.setE2E("refresh_s", "cpu_s", s.median("change_s"))
	r.setE2E("recrawl_refresh_s", "cpu_s", s.median("recrawl_s"))
	r.setE2E("read_refresh_p50_s", "s", c.rd.lat.quantile(0.5))
	if r.tr == nil {
		return
	}
	r.setLayer("stream.apply_s", "cpu_s", s.median("stream.apply_s"))
	r.setLayer("stream.refresh_s", "cpu_s", median(r.tr.selfSeconds("stream.refresh")))
	r.setLayer("stream.recrawl_refresh_s", "cpu_s", median(r.tr.selfSeconds("stream.recrawl_refresh")))
	r.setLayer("wall.refresh_s", "s", s.median("wall.change_s"))
	r.setLayer("wall.recrawl_refresh_s", "s", s.median("wall.recrawl_s"))
	r.setLayer("stream.alloc_bytes", "bytes", s.median("stream.alloc_bytes"))
	r.setLayer("stream.solves_skipped", "count", s.median("stream.solves_skipped_change")+s.median("stream.solves_skipped_recrawl"))
	// κ flips in a minority of refreshes, so its median would read 0.
	r.setLayer("stream.kappa_changed", "count", mean(s["stream.kappa_changed"]))
	r.setLayer("stream.compactions", "%", 100*float64(c.compactions)/float64(c.refreshes))
	for _, a := range mixAlgos {
		r.setLayer("stream."+string(a)+"_iters", "count", s.median("stream."+string(a)+"_iters"))
	}
	r.setLayer("stream.publish_wall_s", "s", s.median("stream.publish_wall_s"))
	r.setLayer("server.read_refresh_p99_s", "s", c.rd.lat.quantile(0.99))
}

func (c *crawlPhase) check(r *run) error { return checkRefresh(r, c.p, c.last, c.ds.SpamSources) }

// checkRefresh compares the last refreshed snapshot with a cold build of
// the mutated corpus: the source graph bit for bit, κ exactly, every
// score vector within what two converged solves of one fixed point may
// differ by, and σ against the benchmark's own T″.
func checkRefresh(r *run, p *stream.Pipeline, last *server.Snapshot, spam []int32) error {
	pg := p.Ingestor().PageGraph()
	cold, err := server.BuildSnapshot(pg, spam, server.BuildConfig{Workers: 1})
	if err != nil {
		return err
	}
	coldSG, err := source.Build(pg, source.Options{})
	if err != nil {
		return err
	}
	r.op("refresh source graph equals cold build", checkSourceGraphsEqual(p.Ingestor().Emit(), coldSG))
	n := coldSG.NumSources()
	c := deriveConsensus(pg)
	prox := server.WarmStartFrom(cold).Proximity
	kappa := topKKappa(prox, defaultTopK(n))
	var kerr error
	if !slices.Equal(p.Kappa(), kappa) {
		kerr = checkf("refresh kappa differs from the top-%d of the cold proximity", defaultTopK(n))
	}
	r.op("refresh kappa", kerr)
	var perr error
	if res, lim := proximityResidual(c, spam, prox, alpha), residualTol(n, alpha, linalgTol(false), false); !(res <= lim) {
		perr = checkf("cold proximity residual %.3g above %.3g", res, lim)
	}
	r.op("cold proximity", perr)
	r.op("refresh srsr residual", checkSigma(c, kappa, last.Set(server.AlgoSRSR).ScoresView(), false))
	// Each converged vector is within residual/(1−α) of the fixed point
	// in L1, so two of them are within twice that of each other.
	lim := 2 * residualTol(n, alpha, linalgTol(false), false) / (1 - alpha)
	for _, a := range mixAlgos {
		var err error
		if d := l1(last.Set(a).ScoresView(), cold.Set(a).ScoresView()); !(d <= lim) || math.IsNaN(d) {
			err = checkf("%s scores differ from the cold build by %.3g in L1, above %.3g", a, d, lim)
		}
		r.op("refresh "+string(a)+" equals cold build", err)
	}
	return nil
}
