// Command perfbench is the repository's benchmark. It drives the ranking
// system's public packages from outside, on generated inputs, and prints
// end-to-end metrics (untraced runs) or per-layer metrics (traced runs)
// as one JSON object on the last line of standard output.
//
//	perfbench --workload uk2002 --seed 1 --seconds 36 --trace 0
//	perfbench steady --runs 5
//
// A workload run starts one process per phase of the workload,
// "perfbench phase --phase <name> ...", one after another, and merges
// what they print. Every run works in a fresh directory under --work that is removed on
// every exit path, and checks the program's outputs against values the
// benchmark computes on its own; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"

	"sourcerank/internal/gen"
)

// workloads maps a workload name to the function that runs it. Every
// workload runs the same three phases on corpora of its preset's shape,
// so that each reports every metric.
var workloads = map[string]func(*run) error{
	"uk2002": phasesOf(gen.UK2002),
	"it2004": phasesOf(gen.IT2004),
}

// presets maps a workload name to the shape of its corpora.
var presets = map[string]gen.Preset{"uk2002": gen.UK2002, "it2004": gen.IT2004}

// workloadOrder is the order the steadiness command runs them in.
var workloadOrder = []string{"uk2002", "it2004"}

// endToEnd and perLayer list the metrics an untraced and a traced run
// report; a run that misses one, or adds one, fails.
var (
	endToEnd = []string{"setup_s", "peak_rss_bytes", "rank_s", "rank_f32_s", "read_p50_s",
		"slab_build_s", "slab_solve_s", "slab_solve_f32_s", "refresh_s", "recrawl_refresh_s", "read_refresh_p50_s"}
	perLayer = []string{
		"source.build_s", "source.alloc_bytes", "throttle.proximity_s", "throttle.proximity_iters",
		"core.srsr_s", "core.srsr_w1_s", "core.srsr_iters", "core.srsr_f32_s", "core.srsr_f32_iters",
		"rank.pagerank_s", "rank.trustrank_s", "rank.pagerank_iters", "rank.trustrank_iters",
		"rank.pagerank_f32_s", "rank.trustrank_f32_s", "rank.pagerank_f32_iters", "rank.trustrank_f32_iters",
		"linalg.solve_gb_s", "linalg.solve_f32_gb_s", "server.finalize_s", "server.finalize_wall_s",
		"server.read_p99_s", "server.read_allocs", "wall.setup_s", "wall.rank_s", "wall.rank_f32_s",
		"webgraph.compress_s", "webgraph.slab_build_f64_s", "webgraph.slab_build_f32_s",
		"webgraph.slab_alloc_bytes", "webgraph.slab_gc_cycles", "webgraph.slab_source_passes", "webgraph.slab_bytes",
		"linalg.slab_open_s", "linalg.slab_solve_iters", "linalg.slab_solve_f32_iters", "linalg.slab_gb_s",
		"linalg.slab_f32_gb_s", "sysmem.build_rss_bytes", "sysmem.solve_rss_bytes",
		"wall.slab_build_s", "wall.slab_solve_s", "wall.slab_solve_f32_s",
		"stream.apply_s", "stream.refresh_s", "stream.recrawl_refresh_s", "stream.alloc_bytes",
		"stream.solves_skipped", "stream.kappa_changed", "stream.compactions", "stream.srsr_iters",
		"stream.pagerank_iters", "stream.trustrank_iters", "stream.publish_wall_s", "server.read_refresh_p99_s",
		"wall.refresh_s", "wall.recrawl_refresh_s", "trace.overhead",
	}
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "phase":
			os.Exit(benchMain(os.Args[2:], os.Stdout, os.Stderr, true))
		}
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr, false))
}

// benchMain runs one workload, or with phaseMode one phase of it, and
// returns the process exit code. Every path out of it, a failed check
// and a signal included, stops the phase process it started and removes
// the run's directory before the code is returned.
func benchMain(args []string, stdout, stderr io.Writer, phaseMode bool) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: uk2002 or it2004")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured rounds in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	work := fs.String("work", ".bench_build", "directory under which the run's temporary directory is made")
	scale := fs.Float64("scale", 1, "multiplies every corpus size (the tests shrink them)")
	var phaseName *string
	if phaseMode {
		phaseName = fs.String("phase", "", "phase to run: cold-rank, out-of-core or crawl-refresh")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if phaseMode {
		fn, ok = phaseRun(*workload, *phaseName)
	}
	if !ok || !(*seconds > 0) || !(*scale > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload uk2002|it2004, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// A signal ends the process without unwinding main's stack, so the
	// phase process is stopped and the directory removed here as well.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		if sig, ok := <-sigs; ok {
			stopPhaseProc(sig)
			os.RemoveAll(dir)
			os.Exit(130)
		}
	}()
	defer close(sigs)
	defer signal.Stop(sigs)
	defer os.RemoveAll(dir)

	r := newRun(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir, stderr)
	r.work, r.scale = *work, *scale
	name := *workload
	if phaseMode {
		name += " " + *phaseName
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d seconds=%g trace=%d workers=%d dir=%s (%s)\n",
		name, *seed, *seconds, *trace, r.workers, dir, fsKind(dir))
	if err := runGuarded(fn, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	var res result
	if phaseMode {
		if r.tr != nil {
			if path, err := r.tr.writeFile(*work, *workload+"-"+*phaseName, *seed); err != nil {
				fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
				return 1
			} else {
				fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(r.tr.spans), path)
			}
		}
		res = r.phaseResult()
	} else {
		res = r.result()
		want := endToEnd
		if r.tr != nil {
			want = perLayer
		}
		if got := sortedKeys(res.Metrics); !slices.Equal(got, sortedStrings(want)) {
			fmt.Fprintf(stderr, "perfbench: %s reported metrics %v, want %v\n", name, got, want)
			return 1
		}
		r.printReport(stderr, res)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runGuarded turns a panic inside a workload into an error, so that the
// caller's deferred cleanup still runs.
func runGuarded(fn func(*run) error, r *run) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn(r)
}

// fsKind names the filesystem holding dir: the report says whether the
// run's files lived in memory.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "filesystem unknown"
	}
	if st.Type == 0x01021994 { // TMPFS_MAGIC
		return "tmpfs, memory-backed"
	}
	return "disk-backed filesystem"
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one benchmark run's settings, counters and metrics.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	dir      string // the run's own directory, removed at exit
	work     string // the directory the run's directory is made in
	workers  int
	scale    float64  // multiplies every corpus scale; tests shrink it
	cpu      cpuClock // the clock every CPU time is read from
	log      io.Writer
	tr       *tracer // nil in untraced runs

	attempted, failed int64
	e2e               map[string]metric
	layer             map[string]metric
}

func newRun(workload string, seed uint64, seconds time.Duration, traced bool, dir string, log io.Writer) *run {
	r := &run{
		workload: workload, seed: seed, seconds: seconds, dir: dir,
		workers: runtime.GOMAXPROCS(0), scale: 1, cpu: processCPU, log: log,
		e2e: map[string]metric{}, layer: map[string]metric{},
	}
	if traced {
		r.tr = newTracer(fmt.Sprintf("%s-seed%d-%d", workload, seed, time.Now().UnixNano()), func() int64 { return r.cpu() })
	}
	return r
}

// op counts one attempted operation; a non-nil err marks it failed.
func (r *run) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "perfbench: FAILED %s: %v\n", what, err)
	}
}

// ops counts n operations that all passed.
func (r *run) ops(n int64) { r.attempted += n }

func (r *run) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

func (r *run) result() result {
	m := r.e2e
	if r.tr != nil {
		m = r.layer
	}
	att := r.attempted
	if att < 1 {
		att = 1
	}
	return result{Correct: r.failed == 0, Attempted: att, Failed: r.failed, Metrics: m}
}

// phaseResult is what a phase process prints: every metric it set, for
// the workload process to merge.
func (r *run) phaseResult() result {
	res := r.result()
	res.Metrics = maps.Clone(r.e2e)
	maps.Copy(res.Metrics, r.layer)
	return res
}

func (r *run) printReport(w io.Writer, res result) {
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "perfbench: %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "perfbench: attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}

// errCheck is the error a correctness check returns.
var errCheck = errors.New("check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}
