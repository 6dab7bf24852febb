package main

import (
	"math"
	"testing"

	"sourcerank/internal/gen"
)

func TestCorpusConfigPredictsPageCount(t *testing.T) {
	for i, seed := range []uint64{1, 2, 3} {
		preset := gen.Presets[i]
		cfg, err := corpusConfig(preset, 0.005, seed)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := corpusConfig(preset, 0.005, seed)
		if again.Seed != cfg.Seed {
			t.Fatalf("seed %d: generator seed %d, then %d", seed, cfg.Seed, again.Seed)
		}
		ds, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := legitPages(cfg, cfg.Seed) + cfg.SpamSources*cfg.SpamPagesPerSource
		if got := ds.Pages.NumPages(); got != want {
			t.Fatalf("seed %d: %d pages, predicted %d", seed, got, want)
		}
		exp := float64(cfg.NumSources) * expectedPagesPerSource(cfg)
		if d := math.Abs(float64(legitPages(cfg, cfg.Seed))/exp - 1); d > pageWindow {
			t.Fatalf("seed %d: legitimate pages %.2f%% from the expected %.0f", seed, 100*d, exp)
		}
	}
}
