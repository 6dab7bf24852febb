package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// specFile is the benchmark spec, read from the directory the command
// runs in (the repository root).
const specFile = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs the suite as two interleaved sets of untraced runs of
// the same code on the same seeds: run i of either set uses seed 1000+i,
// and the set that goes first alternates. It prints per workload and
// end-to-end metric each set's median and quartiles, the spread
// (quartile distance over median) next to the metric's bound, and how far
// the second set's median lies from the first's. "all sprd" is the
// spread over both sets' runs together. The run length is the spec's
// run_seconds.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "runs per set and workload")
	work := fs.String("work", ".bench_build", "passed on to each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := os.ReadFile(specFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 1
	}
	var sp benchSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		fmt.Fprintf(os.Stderr, "steady: %s: %v\n", specFile, err)
		return 1
	}
	seconds := sp.RunSeconds
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "steady: %v\n", err)
		return 1
	}
	wls := workloadOrder
	// values[workload][set][metric] lists one value per run; shares
	// holds each run's failed/attempted.
	values := map[string]*[2]map[string][]float64{}
	shares := map[string]*[2][]float64{}
	for _, w := range wls {
		values[w] = &[2]map[string][]float64{{}, {}}
		shares[w] = &[2][]float64{}
	}
	for i := 0; i < *runs; i++ {
		for _, w := range wls {
			// Alternate which set goes first.
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, set := range order {
				seed := uint64(1000 + i)
				res, err := runOnce(self, *work, w, seed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", w, seed, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "steady: set %d run %d %s seed %d: attempted %d failed %d\n",
					set+1, i+1, w, seed, res.Attempted, res.Failed)
				for name, m := range res.Metrics {
					values[w][set][name] = append(values[w][set][name], m.Value)
				}
				shares[w][set] = append(shares[w][set], float64(res.Failed)/float64(res.Attempted))
			}
		}
	}
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "%d runs per set, %d s each; both sets seeds 1000..%d\n", *runs, seconds, 1000+*runs-1)
	fmt.Fprintf(out, "%-14s %-18s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %8s %6s\n",
		"workload", "metric", "A median", "A q1", "A q3", "A sprd", "B median", "B q1", "B q3", "B sprd", "B vs A", "all sprd", "bound")
	for _, w := range wls {
		for _, name := range sortedKeys(values[w][0]) {
			a, b := values[w][0][name], values[w][1][name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			all := append(slices.Clone(a), b...)
			l1, l3 := quartiles(all)
			fmt.Fprintf(out, "%-14s %-18s %12.6g %12.6g %12.6g %6.1f%% | %12.6g %12.6g %12.6g %6.1f%% | %+6.1f%% %7.1f%% %5.0f%%\n",
				w, name, ma, a1, a3, 100*(a3-a1)/ma, mb, b1, b3, 100*(b3-b1)/mb, 100*(mb/ma-1), 100*(l3-l1)/median(all), 100*bounds[name])
		}
		fmt.Fprintf(out, "%-14s %-18s A %v B %v\n", w, "failed share", shares[w][0], shares[w][1])
	}
	return 0
}

// runOnce runs one untraced benchmark run as a child process, waits for
// it, and parses the result on its last line of output.
func runOnce(self, work, workload string, seed uint64, seconds int) (result, error) {
	var res result
	cmd := exec.Command(self, "--work", work, "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("parsing result: %w", err)
	}
	return res, nil
}
