package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark's binary
// when a workload starts its phase processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "phase" {
		os.Exit(benchMain(os.Args[2:], os.Stdout, os.Stderr, true))
	}
	os.Exit(m.Run())
}

// runDirs lists the run directories left under work.
func runDirs(t *testing.T, work string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(work, "run-*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWorkloadsReportEveryMetricAndPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []struct {
		name  string
		scale float64
	}{{"uk2002", 0.05}, {"it2004", 0.05}} {
		for _, trace := range []string{"0", "1"} {
			work := t.TempDir()
			var stdout, stderr bytes.Buffer
			code := benchMain([]string{"--workload", w.name, "--seed", "3", "--seconds", "1.5", "--trace", trace,
				"--work", work, "--scale", fmt.Sprint(w.scale)}, &stdout, &stderr, false)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || !slices.Equal(sortedKeys(res.Metrics), sortedStrings(want)) {
				t.Fatalf("%s trace=%s: result %+v", w.name, trace, res)
			}
			if d := runDirs(t, work); len(d) != 0 {
				t.Fatalf("%s: run directories left behind: %v", w.name, d)
			}
		}
	}
}

func TestFailedRunRemovesItsDirectoryAndPrintsNoResult(t *testing.T) {
	workloads["always_fails"] = func(r *run) error {
		if err := os.WriteFile(filepath.Join(r.dir, "spill.run"), []byte("x"), 0o644); err != nil {
			return err
		}
		return errors.New("deliberate")
	}
	workloads["always_panics"] = func(r *run) error {
		if err := os.WriteFile(filepath.Join(r.dir, "slab"), []byte("x"), 0o644); err != nil {
			return err
		}
		panic("deliberate")
	}
	for _, name := range []string{"always_fails", "always_panics"} {
		work := t.TempDir()
		var stdout, stderr bytes.Buffer
		if code := benchMain([]string{"--workload", name, "--work", work}, &stdout, &stderr, false); code == 0 {
			t.Fatalf("%s: exit 0", name)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%s printed a result: %s", name, stdout.String())
		}
		if d := runDirs(t, work); len(d) != 0 {
			t.Fatalf("%s: run directories left behind: %v", name, d)
		}
	}
}

func TestFailedCheckIsCountedAndReported(t *testing.T) {
	workloads["bad_check"] = func(r *run) error {
		r.op("good", nil)
		r.op("bad", checkf("deliberate"))
		for _, m := range endToEnd {
			r.setE2E(m, "s", 1)
		}
		return nil
	}
	var stdout, stderr bytes.Buffer
	if code := benchMain([]string{"--workload", "bad_check", "--work", t.TempDir()}, &stdout, &stderr, false); code == 0 {
		t.Fatal("exit 0 after a failed check")
	}
	var res result
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Fatalf("result %+v", res)
	}
}
