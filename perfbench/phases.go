package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sourcerank/internal/gen"
)

// phase is one part of a workload: it makes its own inputs and
// measures one path of the system on them.
type phase interface {
	// setup makes the phase's inputs, releasing any made before.
	setup(r *run) error
	// prepare readies what the rounds need beside the inputs.
	prepare(r *run) error
	// begin starts the measured rounds, after the warm-up round.
	begin()
	// round runs the phase's operations once and returns the peak RSS
	// seen in it. In a traced round the layers are called under spans.
	round(r *run, i int, traced bool, s samples, rss *rssSampler) (int64, error)
	// finish turns the rounds' samples into metrics.
	finish(r *run, s samples)
	// check checks the phase's outputs; each check is an operation.
	check(r *run) error
	// close releases the phase's files.
	close()
}

// phaseSpec names a phase and makes it for a workload's corpus.
type phaseSpec struct {
	name  string
	scale float64 // of the phase's corpus
	share float64 // of the run's seconds
	mk    func(gen.Preset, gen.Config) phase
}

// phases lists a workload's phases in the order it runs them. The
// shares give each phase time for a similar number of rounds: a round
// takes about 0.9 s of CPU in the cold-rank phase, 2.8 s out of core and
// 0.2 s in the crawl-refresh phase.
var phases = []phaseSpec{
	{"cold-rank", coldRankScale, 0.35, func(p gen.Preset, c gen.Config) phase { return &coldPhase{preset: p, cfg: c} }},
	{"out-of-core", outOfCoreScale, 0.45, func(_ gen.Preset, c gen.Config) phase { return &oocPhase{cfg: c} }},
	{"crawl-refresh", refreshScale, 0.2, func(p gen.Preset, c gen.Config) phase { return &crawlPhase{preset: p, cfg: c} }},
}

// phasesOf returns the workload that runs the three phases (cold rank,
// out of core, crawl refresh) one after another on corpora of preset's
// shape, each for its share of the run's seconds and each in a process
// of its own. The phases then share no heap and no runtime settings: no
// phase's garbage collections mark or sweep another phase's data, and
// the out-of-core phase runs on one P throughout.
func phasesOf(preset gen.Preset) func(*run) error {
	return func(r *run) error {
		var setupCPU, setupWall, peak, traced, untraced float64
		for _, ph := range phases {
			res, err := spawnPhase(r, ph.name, time.Duration(ph.share*float64(r.seconds)))
			if err != nil {
				return fmt.Errorf("%s phase: %w", ph.name, err)
			}
			r.attempted += res.Attempted
			r.failed += res.Failed
			for k, m := range res.Metrics {
				switch k {
				case "phase.setup_s":
					setupCPU += m.Value
				case "phase.setup_wall_s":
					setupWall += m.Value
				case "phase.peak_rss_bytes":
					peak = max(peak, m.Value)
				case "phase.traced_s":
					traced += m.Value
				case "phase.untraced_s":
					untraced += m.Value
				default:
					if slices.Contains(endToEnd, k) {
						r.e2e[k] = m
					} else {
						r.layer[k] = m
					}
				}
			}
		}
		r.setE2E("setup_s", "s", setupCPU)
		r.setE2E("peak_rss_bytes", "bytes", peak)
		if r.tr != nil {
			r.setLayer("wall.setup_s", "s", setupWall)
			r.setLayer("trace.overhead", "%", 100*(traced/untraced-1))
		}
		return nil
	}
}

// presetScale sizes every preset's corpora to UK2002's source count, so
// that the workloads differ in the shape of their crawls (links per
// page, partner sources, spam share) and not in size.
func presetScale(p gen.Preset) float64 {
	return float64(gen.TableOneSources[gen.UK2002]) / float64(gen.TableOneSources[p])
}

// phaseRun returns the function a phase process runs: the named phase of
// the named workload, its set-up and rounds and checks, reported in
// metrics the workload process merges.
func phaseRun(workload, name string) (func(*run) error, bool) {
	preset, ok := presets[workload]
	i := slices.IndexFunc(phases, func(ph phaseSpec) bool { return ph.name == name })
	if !ok || i < 0 {
		return nil, false
	}
	ph := phases[i]
	return func(r *run) error {
		if name == "out-of-core" {
			// The slab writer is single-threaded and allocates a buffer
			// per row; with a second P idle beside it, the Go runtime's
			// idle GC workers and background scavenger use that P
			// through the writer's hundreds of GC cycles, and the
			// build's CPU time, page faults and peak RSS then follow how
			// busy the host keeps the other CPU (2.2-3.1 s of CPU and
			// 27-50 MiB over five runs of one seed at scale 0.01,
			// against 0.9 s and 19 MiB on one P, on a 2-CPU virtual
			// machine).
			runtime.GOMAXPROCS(oocWorkers)
			r.workers = oocWorkers
		}
		scale := ph.scale * r.scale * presetScale(preset)
		cfg, err := corpusConfig(preset, scale, r.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.log, "perfbench: %s corpus %s x%.4g, generator seed %d\n", name, preset, scale, cfg.Seed)
		p := ph.mk(preset, cfg)
		su, peak, s, err := runPhase(r, name, p, r.seconds)
		if err != nil {
			return err
		}
		var traced, untraced float64
		for k := range s {
			if op, ok := strings.CutPrefix(k, "traced_"); ok {
				traced += s.median(k)
				untraced += s.median(op)
			}
		}
		r.setE2E("phase.setup_s", "s", su.cpu)
		r.setE2E("phase.setup_wall_s", "s", su.wall)
		r.setE2E("phase.peak_rss_bytes", "bytes", peak)
		r.setE2E("phase.traced_s", "cpu_s", traced)
		r.setE2E("phase.untraced_s", "cpu_s", untraced)
		return nil
	}, true
}

// runPhase sets p up, runs its rounds for d and checks its outputs. It
// returns the median set-up time, the median over rounds of each
// round's peak RSS, and the rounds' samples. A traced run alternates
// traced and untraced rounds; the untraced ones give the figures the
// tracing overhead is taken against.
func runPhase(r *run, name string, p phase, d time.Duration) (timing, float64, samples, error) {
	defer p.close()
	su, err := repeatSetup(r, name, func() error { return p.setup(r) })
	if err != nil {
		return su, 0, nil, err
	}
	if err := p.prepare(r); err != nil {
		return su, 0, nil, err
	}
	settle()
	rss, err := startRSS()
	if err != nil {
		return su, 0, nil, err
	}
	defer rss.stopRSS()
	s := samples{}
	var peaks []float64
	err = rounds(d, s, p.begin, func(i int, s samples) error {
		pk, err := p.round(r, i, r.tr != nil && i%2 == 0, s, rss)
		if i >= 0 {
			peaks = append(peaks, float64(pk))
		}
		return err
	})
	if err != nil {
		return su, 0, nil, err
	}
	rss.stopRSS()
	p.finish(r, s)
	return su, median(peaks), s, p.check(r)
}

// phaseProc is the phase process running, if any, so that a signal to
// the workload process can be passed on to it.
var phaseProc struct {
	sync.Mutex
	cmd      *exec.Cmd
	done     chan struct{}
	stopping bool
}

var errStopping = errors.New("stopping on a signal")

// spawnPhase runs the named phase of r's workload for d in a child
// process, waits for it, and returns the result it printed last.
func spawnPhase(r *run, name string, d time.Duration) (result, error) {
	var res result
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if r.tr != nil {
		trace = "1"
	}
	cmd := exec.Command(self, "phase", "--phase", name, "--workload", r.workload,
		"--seed", strconv.FormatUint(r.seed, 10), "--seconds", strconv.FormatFloat(d.Seconds(), 'f', -1, 64),
		"--trace", trace, "--work", r.work, "--scale", strconv.FormatFloat(r.scale, 'g', -1, 64))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, r.log
	// The child is stopped as well if this process dies without
	// passing a signal on.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}

	phaseProc.Lock()
	if phaseProc.stopping {
		phaseProc.Unlock()
		return res, errStopping
	}
	if err := cmd.Start(); err != nil {
		phaseProc.Unlock()
		return res, err
	}
	done := make(chan struct{})
	phaseProc.cmd, phaseProc.done = cmd, done
	phaseProc.Unlock()
	werr := cmd.Wait()
	phaseProc.Lock()
	phaseProc.cmd = nil
	close(done)
	phaseProc.Unlock()

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if perr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); perr != nil || res.Metrics == nil {
		if werr == nil {
			werr = fmt.Errorf("no result: %v", perr)
		}
		return res, werr
	}
	if werr != nil && res.Correct {
		return res, werr
	}
	return res, nil
}

// stopPhaseProc passes sig on to the running phase process and waits for
// it to end; no phase process starts after it.
func stopPhaseProc(sig os.Signal) {
	phaseProc.Lock()
	phaseProc.stopping = true
	cmd, done := phaseProc.cmd, phaseProc.done
	phaseProc.Unlock()
	if cmd != nil {
		cmd.Process.Signal(sig)
		<-done
	}
}
