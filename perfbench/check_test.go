package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/server"
	"sourcerank/internal/source"
)

// testScale keeps the corpora of these tests to a few thousand pages.
const testScale = 0.003

func testCorpus(t *testing.T) *gen.Dataset {
	t.Helper()
	ds, err := gen.GeneratePreset(gen.UK2002, testScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testSnapshot(t *testing.T, ds *gen.Dataset, prec linalg.Precision) *server.Snapshot {
	t.Helper()
	snap, err := server.BuildSnapshot(ds.Pages, ds.SpamSources, server.BuildConfig{Precision: prec})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// perturbed returns a copy of x with its largest entry raised by a
// tenth.
func perturbed(x []float64) []float64 {
	y := slices.Clone(x)
	i := 0
	for j := range y {
		if y[j] > y[i] {
			i = j
		}
	}
	y[i] *= 1.1
	return y
}

func TestSRSRCheckAcceptsSolvesAndRejectsPerturbed(t *testing.T) {
	ds := testCorpus(t)
	c := deriveConsensus(ds.Pages)
	for _, prec := range []linalg.Precision{linalg.Float64, linalg.Float32} {
		f32 := prec == linalg.Float32
		snap := testSnapshot(t, ds, prec)
		prox := server.WarmStartFrom(snap).Proximity
		kappa := topKKappa(prox, defaultTopK(c.n))
		sigma := snap.Set(server.AlgoSRSR).ScoresView()
		if err := checkSigma(c, kappa, sigma, f32); err != nil {
			t.Fatalf("%v: published σ rejected: %v", prec, err)
		}
		if err := checkSigma(c, kappa, perturbed(sigma), f32); !errors.Is(err, errCheck) {
			t.Fatalf("%v: perturbed σ accepted (err %v)", prec, err)
		}
		if err := checkSigma(c, make([]float64, c.n), sigma, f32); !errors.Is(err, errCheck) {
			t.Fatalf("%v: σ accepted against an unthrottled T″ (err %v)", prec, err)
		}
		lim := residualTol(c.n, alpha, 1e-9, false)
		if res := proximityResidual(c, ds.SpamSources, prox, alpha); res > lim {
			t.Fatalf("%v: published proximity residual %g above %g", prec, res, lim)
		}
		if res := proximityResidual(c, ds.SpamSources, perturbed(prox), alpha); res <= lim {
			t.Fatalf("%v: perturbed proximity residual %g within %g", prec, res, lim)
		}
	}
}

func TestSpamDemotionCheck(t *testing.T) {
	ds := testCorpus(t)
	snap := testSnapshot(t, ds, linalg.Float64)
	srsr, pr := snap.Set(server.AlgoSRSR).ScoresView(), snap.Set(server.AlgoPageRank).ScoresView()
	if err := checkSpamDemotion(srsr, pr, ds.SpamSources); err != nil {
		t.Fatal(err)
	}
	if err := checkSpamDemotion(pr, srsr, ds.SpamSources); !errors.Is(err, errCheck) {
		t.Fatalf("swapped vectors accepted (err %v)", err)
	}
}

func TestSourceGraphCheck(t *testing.T) {
	ds := testCorpus(t)
	a, err := source.Build(ds.Pages, source.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := source.Build(ds.Pages, source.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSourceGraphsEqual(a, b); err != nil {
		t.Fatal(err)
	}
	b.T.Vals[len(b.T.Vals)/2] += 1e-15
	if err := checkSourceGraphsEqual(a, b); !errors.Is(err, errCheck) {
		t.Fatalf("changed transition accepted (err %v)", err)
	}
}

func TestTopBodyCheckRejectsReorderedBody(t *testing.T) {
	ds := testCorpus(t)
	snap := testSnapshot(t, ds, linalg.Float64)
	store := server.NewStore(snap)
	h := server.New(store, server.Config{}).Handler()
	req, err := http.NewRequest(http.MethodGet, "/v1/topk?n=10&algo=srsr", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := newSink()
	h.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		t.Fatalf("status %d", w.code)
	}
	v, ok := w.version()
	if !ok || v != snap.Version() {
		t.Fatalf("body version %d (%v), want %d", v, ok, snap.Version())
	}
	want := newExpectedTop(snap.Set(server.AlgoSRSR).ScoresView(), snap.LabelsView(), 100)
	if err := checkTopBody(w.body, v, 10, want); err != nil {
		t.Fatal(err)
	}
	var b topBody
	if err := json.Unmarshal(w.body, &b); err != nil {
		t.Fatal(err)
	}
	b.Results[0], b.Results[1] = b.Results[1], b.Results[0]
	reordered, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTopBody(reordered, v, 10, want); !errors.Is(err, errCheck) {
		t.Fatalf("reordered body accepted (err %v)", err)
	}
	if err := checkTopBody(w.body, v+1, 10, want); !errors.Is(err, errCheck) {
		t.Fatalf("body accepted under the wrong version (err %v)", err)
	}
}

func TestSlabChecksRejectTruncatedSlabAndPerturbedSolve(t *testing.T) {
	dir := t.TempDir()
	r := newRun("uk2002", 7, 0, false, dir, os.Stderr)
	if err := os.Mkdir(filepath.Join(dir, "spill"), 0o755); err != nil {
		t.Fatal(err)
	}
	corpus, err := gen.GenerateStreamPreset(gen.UK2002, testScale, 7, gen.StreamOptions{Dir: filepath.Join(dir, "spill")})
	if err != nil {
		t.Fatal(err)
	}
	set, err := buildSlabs(r, false, corpus, filepath.Join(dir, "slabs"), samples{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f32 := range []bool{false, true} {
		pt := set.f64.PT
		if f32 {
			pt = set.f32.PT
		}
		if err := checkTransposeSlab(pt, f32, set.compressed); err != nil {
			t.Fatalf("f32=%v: committed slab rejected: %v", f32, err)
		}
		sol, err := solveSlab(processCPU, pt, f32, set.bytes64/4, 2)
		if err != nil {
			t.Fatal(err)
		}
		n := set.compressed.NumNodes()
		lim := residualTol(n, alpha, linalgTol(f32), f32)
		if res, err := pageRankResidual(n, set.compressed.EachAdjacency, sol.x, alpha); err != nil || res > lim {
			t.Fatalf("f32=%v: slab solve residual %g above %g (%v)", f32, res, lim, err)
		}
		if res, _ := pageRankResidual(n, set.compressed.EachAdjacency, perturbed(sol.x), alpha); res <= lim {
			t.Fatalf("f32=%v: perturbed solve residual %g within %g", f32, res, lim)
		}
		if err := checkBitwise(perturbed(sol.x), sol.x); !errors.Is(err, errCheck) {
			t.Fatalf("f32=%v: perturbed solve passed the bitwise check", f32)
		}

		data, err := os.ReadFile(pt)
		if err != nil {
			t.Fatal(err)
		}
		cut := filepath.Join(dir, "truncated.slab")
		if err := os.WriteFile(cut, data[:len(data)-len(data)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkTransposeSlab(cut, f32, set.compressed); !errors.Is(err, errCheck) {
			t.Fatalf("f32=%v: truncated slab accepted (err %v)", f32, err)
		}
		if _, err := solveSlab(processCPU, cut, f32, 0, 1); err == nil {
			t.Fatalf("f32=%v: truncated slab solved", f32)
		}
	}
	if err := corpus.Remove(); err != nil {
		t.Fatal(err)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// gives [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median %v, want 2.5", m)
	}
}

func TestLatencyHistQuantile(t *testing.T) {
	h := newLatencyHist()
	for _, ns := range []int64{500, 100, 300, 200, 400, histMax + 5} {
		h.add(ns)
	}
	if q := h.quantile(0.5); q != 300e-9 {
		t.Fatalf("p50 %v, want 300ns", q)
	}
	if q := h.quantile(0.99); q != float64(histMax+5)/1e9 {
		t.Fatalf("p99 %v, want the overflow value", q)
	}
}

func TestSinkVersion(t *testing.T) {
	w := newSink()
	w.Write([]byte("{\n  \"version\": 42,\n  \"algo\": \"srsr\"}"))
	if v, ok := w.version(); !ok || v != 42 {
		t.Fatalf("version %d %v", v, ok)
	}
	w.reset()
	w.Write([]byte(`{"error":"x"}`))
	if _, ok := w.version(); ok || !bytes.Equal(w.body, []byte(`{"error":"x"}`)) {
		t.Fatal("version found in an error body")
	}
}
