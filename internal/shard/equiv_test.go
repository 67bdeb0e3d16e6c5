package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"onex/internal/core"
	"onex/internal/query"
	"onex/internal/rspace"
	"onex/internal/ts"
)

// The acceptance property of the engine: over the same data, every shard
// count answers BestMatch, BestKMatches, RangeSearch(Exact) and both
// seasonal queries identically, at every parallelism and across
// Append/Extend maintenance interleavings — and the distance-bearing
// answers are Float64bits-equal to the sequential reference (oracle).

// randomDataset builds a ragged random-walk dataset: continuous values, so
// no two distinct windows tie on exact DTW.
func randomDataset(r *rand.Rand, n, baseLen int) *ts.Dataset {
	d := &ts.Dataset{Name: "equiv"}
	for i := 0; i < n; i++ {
		length := baseLen + r.Intn(baseLen/2)
		v := make([]float64, length)
		x := r.Float64() * 10
		for j := range v {
			x += r.NormFloat64()
			v[j] = x
		}
		d.Append(fmt.Sprintf("s%d", i), v)
	}
	return d
}

func randomQueries(r *rand.Rand, d *ts.Dataset, lengths []int, count int) [][]float64 {
	qlens := append(append([]int(nil), lengths...), lengths[0]+1) // one unindexed length
	out := make([][]float64, 0, count)
	for i := 0; i < count; i++ {
		l := qlens[i%len(qlens)]
		q := make([]float64, l)
		if i%2 == 0 {
			s := d.Series[r.Intn(d.N())]
			start := r.Intn(s.Len() - l + 1)
			copy(q, s.Values[start:start+l])
			for j := range q {
				q[j] += r.NormFloat64() * 0.05
			}
		} else {
			x := r.Float64()
			for j := range q {
				x += r.NormFloat64() * 0.3
				q[j] = x
			}
		}
		out = append(out, q)
	}
	return out
}

// matchesEqual demands identical identities and Float64bits-equal
// distances.
func matchesEqual(t *testing.T, ctx string, a, b query.Match) {
	t.Helper()
	if a.SeriesID != b.SeriesID || a.Start != b.Start || a.Length != b.Length || a.GroupID != b.GroupID {
		t.Fatalf("%s: match identity diverged: (%d,%d,%d g%d) vs (%d,%d,%d g%d)", ctx,
			a.SeriesID, a.Start, a.Length, a.GroupID, b.SeriesID, b.Start, b.Length, b.GroupID)
	}
	if math.Float64bits(a.Dist) != math.Float64bits(b.Dist) || math.Float64bits(a.RawDTW) != math.Float64bits(b.RawDTW) {
		t.Fatalf("%s: distance diverged: %v/%v vs %v/%v", ctx, a.Dist, a.RawDTW, b.Dist, b.RawDTW)
	}
}

func sortRange(rs []query.RangeResult) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.SeriesID != b.SeriesID {
			return a.SeriesID < b.SeriesID
		}
		return a.Start < b.Start
	})
}

// checkOracle drives the distance-bearing query mix (Q1 and k-NN in both
// modes, range at a wholesale-admitting and a verifying radius, plain and
// exact, and the batch forms) against one engine and demands answers
// Float64bits-equal to the oracle over the engine's own global grouping.
func checkOracle(t *testing.T, ctx string, e *Engine, queries [][]float64, lengths []int, st float64) {
	t.Helper()
	ref := newOracle(e)
	bg := context.Background()
	for qi, q := range queries {
		for _, mode := range []query.MatchMode{query.MatchAny, query.MatchExact} {
			mctx := fmt.Sprintf("%s q%d mode%d", ctx, qi, mode)
			want, werr := ref.bestMatch(q, mode)
			got, err := e.BestMatch(bg, q, mode)
			if (werr == nil) != (err == nil) {
				t.Fatalf("%s: BestMatch error diverged: oracle %v, engine %v", mctx, werr, err)
			}
			if werr == nil {
				matchesEqual(t, mctx+" best", got, want)
			}

			wantK, werr := ref.knn(q, mode, 4)
			gotK, err := e.BestKMatches(bg, q, mode, 4)
			if (werr == nil) != (err == nil) {
				t.Fatalf("%s: BestKMatches error diverged: oracle %v, engine %v", mctx, werr, err)
			}
			if len(gotK) != len(wantK) {
				t.Fatalf("%s: k-NN count diverged: %d vs %d", mctx, len(gotK), len(wantK))
			}
			for i := range wantK {
				matchesEqual(t, fmt.Sprintf("%s knn[%d]", mctx, i), gotK[i], wantK[i])
			}
		}

		// Range searches at a wholesale-admitting radius (> ST) and a
		// verifying one (< ST), both plain and exact.
		length := lengths[qi%len(lengths)]
		if len(q) < length {
			continue
		}
		rq := q[:length]
		for _, radius := range []float64{st * 1.5, st * 0.6} {
			for _, exact := range []bool{false, true} {
				rctx := fmt.Sprintf("%s q%d range r=%.3f exact=%v", ctx, qi, radius, exact)
				want, werr := ref.rangeSearch(rq, length, radius, exact)
				got, err := e.RangeSearchObserved(bg, rq, length, radius, exact, nil)
				if (werr == nil) != (err == nil) {
					t.Fatalf("%s: error diverged: oracle %v, engine %v", rctx, werr, err)
				}
				rangesEqual(t, rctx, got, want)
			}
		}
	}

	// Batch answers must equal the single-query answers, i.e. the oracle's.
	for i, r := range e.BestMatchBatch(bg, queries, query.MatchAny) {
		want, werr := ref.bestMatch(queries[i], query.MatchAny)
		if (werr == nil) != (r.Err == nil) {
			t.Fatalf("%s: batch[%d] error diverged: oracle %v, engine %v", ctx, i, werr, r.Err)
		}
		if werr == nil {
			matchesEqual(t, fmt.Sprintf("%s batch[%d]", ctx, i), r.Match, want)
		}
	}
}

// rangesEqual compares two range result sets (order-insensitive) with
// Float64bits-equal distances.
func rangesEqual(t *testing.T, ctx string, got, want []query.RangeResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: result count diverged: %d vs %d", ctx, len(got), len(want))
	}
	sortRange(got)
	sortRange(want)
	for i := range want {
		if got[i].Guaranteed != want[i].Guaranteed {
			t.Fatalf("%s: result %d guarantee diverged: %+v vs %+v", ctx, i, got[i], want[i])
		}
		matchesEqual(t, fmt.Sprintf("%s result %d", ctx, i), got[i].Match, want[i].Match)
	}
}

// compareEngines checks both engines against the oracle and demands
// identical seasonal answers and SP-Space guidance between them.
func compareEngines(t *testing.T, ctx string, oneShard, sharded *Engine, queries [][]float64, lengths []int, st float64) {
	t.Helper()
	checkOracle(t, ctx+" ref", oneShard, queries, lengths, st)
	checkOracle(t, ctx, sharded, queries, lengths, st)

	// Seasonal queries: identical groups, ids, members, order.
	for _, length := range lengths {
		for sid := -1; sid < oneShard.NumSeries(); sid += 3 {
			var ag, bg []query.SeasonalGroup
			var aerr, berr error
			if sid < 0 {
				ag, aerr = oneShard.SeasonalAll(length)
				bg, berr = sharded.SeasonalAll(length)
			} else {
				ag, aerr = oneShard.SeasonalSample(sid, length)
				bg, berr = sharded.SeasonalSample(sid, length)
			}
			sctx := fmt.Sprintf("%s seasonal l=%d sid=%d", ctx, length, sid)
			if (aerr == nil) != (berr == nil) {
				t.Fatalf("%s: error diverged: %v vs %v", sctx, aerr, berr)
			}
			if aerr != nil {
				continue
			}
			if len(ag) != len(bg) {
				t.Fatalf("%s: group count diverged: %d vs %d", sctx, len(ag), len(bg))
			}
			for i := range ag {
				x, y := ag[i], bg[i]
				if x.GroupID != y.GroupID || len(x.Members) != len(y.Members) {
					t.Fatalf("%s: group %d diverged: id %d/%d members %d/%d",
						sctx, i, x.GroupID, y.GroupID, len(x.Members), len(y.Members))
				}
				for j := range x.Members {
					if x.Members[j] != y.Members[j] {
						t.Fatalf("%s: group %d member %d diverged: %+v vs %+v",
							sctx, i, j, x.Members[j], y.Members[j])
					}
				}
			}
		}
	}

	// SP-Space guidance surface: bit-identical (==, no tolerance) at every
	// layout — the sharded engine computes the critical values from the one
	// global grouping, not from per-shard aggregates.
	if oneShard.STHalf() != sharded.STHalf() || oneShard.STFinal() != sharded.STFinal() {
		t.Fatalf("%s: critical values diverged: (%v,%v) vs (%v,%v)",
			ctx, oneShard.STHalf(), oneShard.STFinal(), sharded.STHalf(), sharded.STFinal())
	}
	for _, length := range append([]int{-1, lengths[0] + 1}, lengths...) {
		for _, deg := range []rspace.Degree{rspace.Strict, rspace.Medium, rspace.Loose} {
			alo, ahi, aerr := oneShard.Recommend(deg, length)
			blo, bhi, berr := sharded.Recommend(deg, length)
			if (aerr == nil) != (berr == nil) {
				t.Fatalf("%s: Recommend(%v,%d) error diverged: %v vs %v", ctx, deg, length, aerr, berr)
			}
			if aerr == nil && (alo != blo || ahi != bhi) {
				t.Fatalf("%s: Recommend(%v,%d) diverged: [%v,%v] vs [%v,%v]",
					ctx, deg, length, alo, ahi, blo, bhi)
			}
		}
	}
	for _, probe := range []float64{0, st * 0.5, oneShard.STHalf(), oneShard.STFinal(), st * 3} {
		if a, b := oneShard.DegreeOf(probe), sharded.DegreeOf(probe); a != b {
			t.Fatalf("%s: DegreeOf(%v) diverged: %v vs %v", ctx, probe, a, b)
		}
	}
}

// TestShardEquivalence is the core property suite: random datasets, both
// parallelism settings, several shard counts, full query mix.
func TestShardEquivalence(t *testing.T) {
	lengths := []int{8, 12, 16}
	const st = 0.35
	for _, parallelism := range []int{1, 8} {
		for _, shards := range []int{2, 3, 5} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("p%d_s%d_seed%d", parallelism, shards, seed), func(t *testing.T) {
					r := rand.New(rand.NewSource(seed * 7717))
					d := randomDataset(r, 18, 32)
					cfg := core.BuildConfig{
						ST: st, Lengths: lengths, Seed: seed,
						Workers: parallelism,
						Query:   query.Options{Parallelism: parallelism},
					}
					oneShard, err := Build(d, cfg, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					sharded, err := Build(d, cfg, shards, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got := sharded.ShardCount(); got != shards {
						t.Fatalf("ShardCount = %d, want %d", got, shards)
					}
					queries := randomQueries(r, d, lengths, 10)
					compareEngines(t, "built", oneShard, sharded, queries, lengths, st)
				})
			}
		}
	}
}

// TestShardEquivalenceMaintenance interleaves Appends and Extends on both
// layouts and re-checks the full query mix after every step — including
// steps that cross the drift threshold and trigger the amortized rebuild.
func TestShardEquivalenceMaintenance(t *testing.T) {
	lengths := []int{8, 12}
	const st = 0.35
	for _, parallelism := range []int{1, 8} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("p%d_seed%d", parallelism, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed * 40129))
				d := randomDataset(r, 12, 28)
				cfg := core.BuildConfig{
					ST: st, Lengths: lengths, Seed: seed,
					Workers:      parallelism,
					RebuildDrift: 0.2, // make some steps rebuild
					Query:        query.Options{Parallelism: parallelism},
				}
				oneShard, err := Build(d, cfg, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				sharded, err := Build(d, cfg, 3, nil)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 6; step++ {
					if step%2 == 0 {
						sid := r.Intn(oneShard.NumSeries())
						pts := make([]float64, 4+r.Intn(8))
						x := oneShard.Window(sid, oneShard.data.Series[sid].Len()-1, 1)[0]
						for j := range pts {
							x += r.NormFloat64() * 0.05
							pts[j] = x
						}
						m2, err := oneShard.Append(sid, pts)
						if err != nil {
							t.Fatalf("step %d oneShard append: %v", step, err)
						}
						s2, err := sharded.Append(sid, pts)
						if err != nil {
							t.Fatalf("step %d sharded append: %v", step, err)
						}
						oneShard, sharded = m2, s2
					} else {
						extra := make([]*ts.Series, 1+r.Intn(2))
						for i := range extra {
							v := make([]float64, 20+r.Intn(12))
							x := r.Float64() * 4
							for j := range v {
								x += r.NormFloat64() * 0.5
								v[j] = x
							}
							extra[i] = &ts.Series{Label: "new", Values: v}
						}
						m2, err := oneShard.Extend(extra)
						if err != nil {
							t.Fatalf("step %d oneShard extend: %v", step, err)
						}
						s2, err := sharded.Extend(extra)
						if err != nil {
							t.Fatalf("step %d sharded extend: %v", step, err)
						}
						oneShard, sharded = m2, s2
					}
					if md, sd := oneShard.Drift(), sharded.Drift(); md != sd {
						t.Fatalf("step %d: drift diverged: %v vs %v", step, md, sd)
					}
					queries := randomQueries(r, oneShard.data, lengths, 6)
					compareEngines(t, fmt.Sprintf("step%d", step), oneShard, sharded, queries, lengths, st)
				}
				if oneShard.Rebuilds() == 0 {
					t.Error("maintenance interleaving never crossed the rebuild threshold; weaken RebuildDrift")
				}
				if oneShard.Rebuilds() != sharded.Rebuilds() {
					t.Errorf("rebuild counters diverged: oneShard %d, sharded %d", oneShard.Rebuilds(), sharded.Rebuilds())
				}
			})
		}
	}
}
