package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus the time child spans cover
	// CPU is the CPU time the run's clock advanced over the span, and
	// SelfCPU that minus its child spans' CPU time.
	CPU     int64 `json:"cpu_ns"`
	SelfCPU int64 `json:"self_cpu_ns"`
	// AllocBytes, Mallocs and GCs are the allocator's counters over the
	// span (runtime.MemStats deltas, all goroutines included).
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCs        uint32 `json:"gc_cycles"`
}

// tracer keeps a run's spans in memory; writeFile writes them out once
// the run has ended. It is used from one goroutine.
type tracer struct {
	runID string
	t0    time.Time
	cpu   cpuClock
	spans []span
	stack []int // indexes into spans of the open spans
}

func newTracer(runID string, cpu cpuClock) *tracer {
	return &tracer{runID: runID, t0: time.Now(), cpu: cpu}
}

// do records a span named name around fn and returns the span.
func (t *tracer) do(name string, fn func() error) (span, error) {
	parent := 0
	if len(t.stack) > 0 {
		parent = t.spans[t.stack[len(t.stack)-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Run: t.runID, Name: name})
	t.stack = append(t.stack, i)
	m0 := readMem()
	c0 := t.cpu()
	start := time.Since(t.t0).Nanoseconds()
	err := fn()
	end := time.Since(t.t0).Nanoseconds()
	cpu := t.cpu() - c0
	d := diffMem(m0, readMem())
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[i]
	s.Start, s.End = start, end
	s.AllocBytes, s.Mallocs, s.GCs = d.allocBytes, d.mallocs, d.numGC
	s.Self, s.CPU, s.SelfCPU = s.End-s.Start, cpu, cpu
	for j := i + 1; j < len(t.spans); j++ {
		if t.spans[j].Parent == s.ID {
			s.Self -= t.spans[j].End - t.spans[j].Start
			s.SelfCPU -= t.spans[j].CPU
		}
	}
	return *s, err
}

// selfSeconds returns the self CPU time of every span named name, in
// seconds, in the order they were recorded.
func (t *tracer) selfSeconds(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.SelfCPU)/1e9)
		}
	}
	return out
}

// selfWallSeconds returns the self wall time of every span named name,
// in seconds, in the order they were recorded.
func (t *tracer) selfWallSeconds(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Self)/1e9)
		}
	}
	return out
}

// writeFile writes the spans as JSON under dir/traces and returns the
// file's path.
func (t *tracer) writeFile(dir, workload string, seed uint64) (string, error) {
	tdir := filepath.Join(dir, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.MarshalIndent(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{t.runID, t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
