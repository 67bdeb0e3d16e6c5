package onex

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
)

// walkSeries builds continuous random-walk inputs: unlike the symmetric
// sine fixture, no two distinct windows tie on exact DTW.
func walkSeries(n, length int, seed int64) []Series {
	r := rand.New(rand.NewSource(seed))
	out := make([]Series, 0, n)
	for s := 0; s < n; s++ {
		v := make([]float64, length)
		x := r.Float64() * 5
		for i := range v {
			x += r.NormFloat64()
			v[i] = x
		}
		out = append(out, Series{Label: "walk", Values: v})
	}
	return out
}

// TestShardsOption drives the sharded engine through the public API:
// Shards=N answers must equal the default one-shard layout, stats must
// expose the layout, snapshots must round-trip it, and the documented
// restrictions must hold.
func TestShardsOption(t *testing.T) {
	series := walkSeries(9, 48, 42)
	opts := Options{ST: 0.25, Lengths: []int{8, 16, 24}}
	oneShard, err := Build("fixture", series, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = 3
	sharded, err := Build("fixture", series, opts)
	if err != nil {
		t.Fatal(err)
	}
	if oneShard.Shards() != 1 {
		t.Errorf("default base Shards() = %d, want 1", oneShard.Shards())
	}
	if sharded.Shards() != 3 {
		t.Errorf("sharded base Shards() = %d, want 3", sharded.Shards())
	}

	q := append([]float64(nil), series[2].Values[5:21]...)
	am, err := oneShard.BestMatch(q, MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := sharded.BestMatch(q, MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	if am.SeriesID != bm.SeriesID || am.Start != bm.Start || am.Length != bm.Length ||
		math.Abs(am.Distance-bm.Distance) > 1e-12 {
		t.Fatalf("BestMatch diverged: %+v vs %+v", am, bm)
	}

	ak, err := oneShard.BestKMatches(q, MatchAny, 3)
	if err != nil {
		t.Fatal(err)
	}
	bk, err := sharded.BestKMatches(q, MatchAny, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ak) != len(bk) {
		t.Fatalf("k-NN counts diverged: %d vs %d", len(ak), len(bk))
	}
	for i := range ak {
		if ak[i].SeriesID != bk[i].SeriesID || ak[i].Start != bk[i].Start ||
			math.Abs(ak[i].Distance-bk[i].Distance) > 1e-12 {
			t.Fatalf("k-NN %d diverged: %+v vs %+v", i, ak[i], bk[i])
		}
	}

	ar, err := oneShard.RangeSearchExact(q, 16, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	br, err := sharded.RangeSearchExact(q, 16, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar) != len(br) {
		t.Fatalf("range counts diverged: %d vs %d", len(ar), len(br))
	}
	canon := func(rs []RangeMatch) {
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].SeriesID != rs[j].SeriesID {
				return rs[i].SeriesID < rs[j].SeriesID
			}
			return rs[i].Start < rs[j].Start
		})
	}
	canon(ar)
	canon(br)
	for i := range ar {
		if ar[i].SeriesID != br[i].SeriesID || ar[i].Start != br[i].Start ||
			ar[i].Guaranteed != br[i].Guaranteed ||
			math.Abs(ar[i].Distance-br[i].Distance) > 1e-12 {
			t.Fatalf("range %d diverged: %+v vs %+v", i, ar[i], br[i])
		}
	}

	ap, err := oneShard.SeasonalAll(16)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := sharded.SeasonalAll(16)
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
				t.Fatalf("pattern %d occurrence %d diverged", i, j)
			}
		}
	}

	// Stats expose the layout and per-shard populations.
	st := sharded.Stats()
	if st.Shards != 3 || len(st.PerShard) != 3 {
		t.Fatalf("Stats layout = %d shards / %d entries, want 3/3", st.Shards, len(st.PerShard))
	}
	series3, subseq := 0, int64(0)
	for _, sh := range st.PerShard {
		series3 += sh.Series
		subseq += sh.Subsequences
	}
	if series3 != sharded.NumSeries() || subseq != st.Subsequences {
		t.Errorf("per-shard sums (%d series, %d subseq) disagree with totals (%d, %d)",
			series3, subseq, sharded.NumSeries(), st.Subsequences)
	}
	if oneShard.LayoutSignature() == sharded.LayoutSignature() {
		t.Error("different layouts share a LayoutSignature")
	}

	// Snapshot round trip preserves the layout and the answers.
	path := filepath.Join(t.TempDir(), "sharded.onex")
	if err := sharded.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 3 {
		t.Errorf("reloaded Shards() = %d, want 3", loaded.Shards())
	}
	lm, err := loaded.BestMatch(q, MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	if lm.SeriesID != bm.SeriesID || lm.Start != bm.Start || math.Abs(lm.Distance-bm.Distance) > 1e-12 {
		t.Fatalf("reloaded BestMatch diverged: %+v vs %+v", lm, bm)
	}

	// Maintenance flows through the sharded engine.
	grown, err := sharded.Append(0, 0.1, 0.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Stats().Drift <= 0 {
		t.Error("append did not register drift")
	}

	// Documented restrictions.
	if _, err := Build("x", series, Options{ST: 0.2, Shards: -1}); err == nil {
		t.Error("negative Shards: want error")
	}

	// Threshold adaptation works at every layout and answers identically.
	sa, err := sharded.WithThreshold(0.4)
	if err != nil {
		t.Fatalf("sharded WithThreshold: %v", err)
	}
	ma, err := oneShard.WithThreshold(0.4)
	if err != nil {
		t.Fatalf("unsharded WithThreshold: %v", err)
	}
	if sa.Shards() != 3 || sa.ST() != 0.4 {
		t.Errorf("adapted sharded base: Shards %d ST %v, want 3 and 0.4", sa.Shards(), sa.ST())
	}
	aam, err := ma.BestMatch(q, MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	aas, err := sa.BestMatch(q, MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	if aam.SeriesID != aas.SeriesID || aam.Start != aas.Start || math.Float64bits(aam.Distance) != math.Float64bits(aas.Distance) {
		t.Fatalf("adapted BestMatch diverged across layouts: %+v vs %+v", aam, aas)
	}
}

// TestCanceledContextUnsharded pins that every base — the default one-shard
// layout included — honors ctx: a canceled context makes match, k-NN and
// range return context.Canceled instead of answering.
func TestCanceledContextUnsharded(t *testing.T) {
	series := walkSeries(6, 40, 7)
	b, err := Build("cancel", series, Options{ST: 0.25, Lengths: []int{8, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Shards() != 1 {
		t.Fatalf("default base Shards() = %d, want 1", b.Shards())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := append([]float64(nil), series[1].Values[3:11]...)
	for _, mode := range []MatchMode{MatchExact, MatchAny} {
		if _, err := b.BestMatchContext(ctx, q, mode); !errors.Is(err, context.Canceled) {
			t.Errorf("BestMatch mode %d on canceled ctx: err %v, want context.Canceled", mode, err)
		}
		if _, err := b.BestKMatchesObserved(ctx, q, mode, 3, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("BestKMatches mode %d on canceled ctx: err %v, want context.Canceled", mode, err)
		}
	}
	for _, exact := range []bool{false, true} {
		if _, err := b.RangeSearchObserved(ctx, q, 8, 0.5, exact, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("RangeSearch exact=%v on canceled ctx: err %v, want context.Canceled", exact, err)
		}
	}
	if rs := b.BestMatchBatch(ctx, [][]float64{q}, MatchAny); !errors.Is(rs[0].Err, context.Canceled) {
		t.Errorf("BestMatchBatch on canceled ctx: err %v, want context.Canceled", rs[0].Err)
	}
}
