package main

import (
	"fmt"
	"math"

	"sourcerank/internal/gen"
)

// pageWindow is how far a workload's corpus may lie from its preset's
// expected page count, as a share of it.
const pageWindow = 0.005

// corpusConfig returns the generator configuration of preset at scale
// for the benchmark's seed.
//
// Pages per source follow a bounded Pareto law, so the page count of a
// corpus swings with its generator seed: at scale 0.02, over ±10%
// between seeds. Every workload's times grow with it, so seeds would
// differ in size as well as in link structure. The configuration's seed
// is therefore the first of a sequence drawn from seed whose corpus has
// within pageWindow of the expected page count. The same seed still
// gives the same corpus.
func corpusConfig(preset gen.Preset, scale float64, seed uint64) (gen.Config, error) {
	cfg := gen.PresetConfig(preset, scale, seed)
	if cfg.SubdomainProb > 0 {
		// legitPages predicts the draws of a configuration without
		// subdomain hosts only.
		return cfg, fmt.Errorf("corpus seed: preset draws subdomain hosts")
	}
	want := float64(cfg.NumSources) * expectedPagesPerSource(cfg)
	seq := gen.NewRNG(seed ^ 0x9a6e5eed)
	best, bestDiff := seed, math.Inf(1)
	for i := 0; i < 4096; i++ {
		cand := seq.Uint64()
		diff := math.Abs(float64(legitPages(cfg, cand))/want - 1)
		if diff < bestDiff {
			best, bestDiff = cand, diff
		}
		if diff <= pageWindow {
			break
		}
	}
	cfg.Seed = best
	return cfg, nil
}

// legitPages is the number of legitimate pages the generator makes with
// seed: the sum of the Pareto draws that open its random stream, one
// per legitimate source.
func legitPages(cfg gen.Config, seed uint64) int {
	rng := gen.NewRNG(seed)
	total := 0
	for s := 0; s < cfg.NumSources; s++ {
		total += max(1, int(rng.Pareto(float64(cfg.PagesPerSourceMin), cfg.PagesPerSourceExp, float64(cfg.PagesPerSourceMax))))
	}
	return total
}

// expectedPagesPerSource is the mean of the truncated page-count draw,
// Σₖ P(X ≥ k) over k = 1..max, with P(X ≥ k) = (min/k)^(exp−1) above
// the minimum.
func expectedPagesPerSource(cfg gen.Config) float64 {
	lo, a := float64(cfg.PagesPerSourceMin), cfg.PagesPerSourceExp-1
	var e float64
	for k := 1; k <= cfg.PagesPerSourceMax; k++ {
		e += math.Min(1, math.Pow(lo/float64(k), a))
	}
	return e
}
