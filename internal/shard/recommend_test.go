package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"onex/internal/core"
	"onex/internal/query"
	"onex/internal/rspace"
)

// TestRecommendExactAcrossShards is the regression test for the sharded
// guidance surface. Before the fix, Recommend/DegreeOf/STHalf/STFinal on a
// sharded layout aggregated the per-shard SP-Spaces (maximum over shards of
// each shard's restricted merge structure) — a different quantity than the
// global grouping's critical values, so the guidance ranges changed with
// the shard count. The fix computes them from the ONE global grouping
// (rspace.MergeThresholdsFor) at assemble time.
//
// The test (a) recomputes the old per-shard aggregation and demands it
// actually differs from the global values on this fixture — proving the
// test would have failed before the fix and guarding its power — and then
// (b) demands the engine's surface is bit-identical to the unsharded one.
func TestRecommendExactAcrossShards(t *testing.T) {
	lengths := []int{8, 12, 16}
	const st = 0.35
	r := rand.New(rand.NewSource(9341))
	d := randomDataset(r, 18, 32)
	cfg := core.BuildConfig{ST: st, Lengths: lengths, Seed: 1, Query: query.Options{}}

	oneShard, err := Build(d, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (a) The pre-fix aggregation: per-length maxima over the shards'
	// restricted merge structures. It must differ from the exact global
	// values for at least one (length, shard count) on this fixture, or the
	// fixture has lost its discriminating power.
	aggregateDiverges := false

	for _, shards := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			sharded, err := Build(d, cfg, shards, nil)
			if err != nil {
				t.Fatal(err)
			}

			for _, l := range lengths {
				var aggHalf float64
				for _, p := range sharded.parts {
					if entry := p.base.Entry(l); entry != nil && entry.STHalf > aggHalf {
						aggHalf = entry.STHalf
					}
				}
				_, exactHalf, err := oneShard.Recommend(rspace.Strict, l)
				if err != nil {
					t.Fatal(err)
				}
				if aggHalf != exactHalf {
					aggregateDiverges = true
				}
			}

			// (b) The fixed surface is bit-identical to the unsharded engine.
			if sharded.STHalf() != oneShard.STHalf() || sharded.STFinal() != oneShard.STFinal() {
				t.Fatalf("critical values diverged: sharded (%v,%v) vs oneShard (%v,%v)",
					sharded.STHalf(), sharded.STFinal(), oneShard.STHalf(), oneShard.STFinal())
			}
			for _, length := range append([]int{-1}, lengths...) {
				for _, deg := range []rspace.Degree{rspace.Strict, rspace.Medium, rspace.Loose} {
					alo, ahi, aerr := oneShard.Recommend(deg, length)
					blo, bhi, berr := sharded.Recommend(deg, length)
					if aerr != nil || berr != nil {
						t.Fatalf("Recommend(%v,%d) errored: %v / %v", deg, length, aerr, berr)
					}
					if alo != blo || ahi != bhi {
						t.Fatalf("Recommend(%v,%d) diverged: [%v,%v] vs [%v,%v]",
							deg, length, blo, bhi, alo, ahi)
					}
				}
			}
			// Unindexed lengths error on both layouts.
			if _, _, err := sharded.Recommend(rspace.Strict, lengths[0]+1); err == nil {
				t.Fatal("Recommend on an unindexed length should error")
			}
			if _, _, err := sharded.Recommend(rspace.Degree(99), -1); err == nil {
				t.Fatal("Recommend with an unknown degree should error")
			}
		})
	}
	if !aggregateDiverges {
		t.Fatal("fixture too weak: the per-shard aggregate coincides with the global critical values at every (length, shard count) — the pre-fix bug would not be caught")
	}
}

// TestDegreeOfPopulatedThresholds locks the structural fix for the old
// error-swallowing DegreeOf: the classification now reads critical values
// that every assembled engine holds by construction, so a sharded engine
// must classify exactly like the unsharded one — in particular a tiny
// threshold is Strict, which the old code silently turned into a
// classification against zero thresholds (everything Loose) whenever the
// discarded lookup failed.
func TestDegreeOfPopulatedThresholds(t *testing.T) {
	lengths := []int{8, 12}
	const st = 0.35
	r := rand.New(rand.NewSource(4519))
	d := randomDataset(r, 14, 30)
	cfg := core.BuildConfig{ST: st, Lengths: lengths, Seed: 2, Query: query.Options{}}

	oneShard, err := Build(d, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(d, cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.STHalf() <= 0 || sharded.STFinal() < sharded.STHalf() {
		t.Fatalf("critical values not populated: half=%v final=%v", sharded.STHalf(), sharded.STFinal())
	}
	if got := sharded.DegreeOf(1e-9); got != rspace.Strict {
		t.Fatalf("DegreeOf(1e-9) = %v, want Strict — thresholds unpopulated?", got)
	}
	probes := []float64{0, 1e-9, st / 2, sharded.STHalf(), sharded.STHalf() * 1.000001,
		sharded.STFinal(), sharded.STFinal() * 2}
	for _, p := range probes {
		if a, b := oneShard.DegreeOf(p), sharded.DegreeOf(p); a != b {
			t.Fatalf("DegreeOf(%v) diverged: oneShard %v vs sharded %v", p, a, b)
		}
	}
}
