package onex

import (
	"context"
	"fmt"
	"math"
	"testing"

	"onex/internal/obs"
)

// TestObservedEquivalence pins the tracing contract at the public surface:
// for every query family, a run with a live trace recorder is bit-identical
// to the untraced call — across sequential and parallel execution and across
// one-shard and sharded layouts. Tracing only observes; it never perturbs the
// cascade's pruning order or tie-breaks.
func TestObservedEquivalence(t *testing.T) {
	series := walkSeries(9, 48, 7)
	for _, par := range []int{1, 8} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("par=%d/shards=%d", par, shards), func(t *testing.T) {
				opts := Options{ST: 0.25, Lengths: []int{8, 16, 24}, Parallelism: par, Shards: shards}
				base, err := Build("fixture", series, opts)
				if err != nil {
					t.Fatal(err)
				}
				q := append([]float64(nil), series[4].Values[10:26]...)

				// Q1 best match.
				tr := obs.NewTrace("t-match")
				am, err := base.BestMatch(q, MatchAny)
				if err != nil {
					t.Fatal(err)
				}
				bm, err := base.BestMatchObserved(context.Background(), q, MatchAny, tr)
				if err != nil {
					t.Fatal(err)
				}
				if am.SeriesID != bm.SeriesID || am.Start != bm.Start || am.Length != bm.Length ||
					math.Float64bits(am.Distance) != math.Float64bits(bm.Distance) {
					t.Fatalf("BestMatch diverged under tracing: %+v vs %+v", am, bm)
				}
				requireTraced(t, "match", tr, true)

				// k-NN.
				ak, err := base.BestKMatches(q, MatchAny, 3)
				if err != nil {
					t.Fatal(err)
				}
				tr = obs.NewTrace("t-knn")
				bk, err := base.BestKMatchesObserved(context.Background(), q, MatchAny, 3, tr)
				if err != nil {
					t.Fatal(err)
				}
				if len(ak) != len(bk) {
					t.Fatalf("k-NN counts diverged: %d vs %d", len(ak), len(bk))
				}
				for i := range ak {
					if ak[i].SeriesID != bk[i].SeriesID || ak[i].Start != bk[i].Start ||
						math.Float64bits(ak[i].Distance) != math.Float64bits(bk[i].Distance) {
						t.Fatalf("k-NN %d diverged under tracing: %+v vs %+v", i, ak[i], bk[i])
					}
				}
				requireTraced(t, "knn", tr, true)

				// Range search, both distance semantics.
				for _, exact := range []bool{false, true} {
					var ar []RangeMatch
					if exact {
						ar, err = base.RangeSearchExact(q, 16, 0.3)
					} else {
						ar, err = base.RangeSearch(q, 16, 0.3)
					}
					if err != nil {
						t.Fatal(err)
					}
					tr = obs.NewTrace("t-range")
					br, err := base.RangeSearchObserved(context.Background(), q, 16, 0.3, exact, tr)
					if err != nil {
						t.Fatal(err)
					}
					if len(ar) != len(br) {
						t.Fatalf("range(exact=%v) counts diverged: %d vs %d", exact, len(ar), len(br))
					}
					for i := range ar {
						if ar[i].SeriesID != br[i].SeriesID || ar[i].Start != br[i].Start ||
							ar[i].Guaranteed != br[i].Guaranteed ||
							math.Float64bits(ar[i].Distance) != math.Float64bits(br[i].Distance) {
							t.Fatalf("range(exact=%v) %d diverged under tracing: %+v vs %+v", exact, i, ar[i], br[i])
						}
					}
					requireTraced(t, "range", tr, false)
				}

				// Seasonal (no cascade: spans only, no work counters required).
				ap, err := base.SeasonalAll(16)
				if err != nil {
					t.Fatal(err)
				}
				tr = obs.NewTrace("t-seasonal")
				bp, err := base.SeasonalAllObserved(16, tr)
				if err != nil {
					t.Fatal(err)
				}
				if len(ap) != len(bp) {
					t.Fatalf("seasonal counts diverged: %d vs %d", len(ap), len(bp))
				}
				for i := range ap {
					if len(ap[i].Occurrences) != len(bp[i].Occurrences) {
						t.Fatalf("pattern %d occurrence counts diverged", i)
					}
					for j := range ap[i].Occurrences {
						if ap[i].Occurrences[j] != bp[i].Occurrences[j] {
							t.Fatalf("pattern %d occurrence %d diverged under tracing", i, j)
						}
					}
				}
				if len(tr.Snapshot().Spans) == 0 {
					t.Error("seasonal trace recorded no spans")
				}
			})
		}
	}
}

// requireTraced asserts a recorder actually observed the query: at least
// one span, and (for cascade families) non-empty work counters whose
// repsExamined tally is positive.
func requireTraced(t *testing.T, family string, tr *obs.Trace, needWork bool) {
	t.Helper()
	v := tr.Snapshot()
	if len(v.Spans) == 0 {
		t.Errorf("%s trace recorded no spans", family)
	}
	if !needWork {
		return
	}
	if v.Work["repsExamined"] <= 0 {
		t.Errorf("%s trace work = %v, want repsExamined > 0", family, v.Work)
	}
}
