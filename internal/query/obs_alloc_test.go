package query

import (
	"context"
	"testing"

	"onex/internal/grouping"
)

// allocProbe builds a small single-length one-shard engine and a valid query for
// the allocation guards (Parallelism 1 keeps goroutine machinery out of
// the counted path).
func allocProbe(tb testing.TB) (*testEngine, []float64) {
	d := equivDataset(11, 8, 32)
	gr, err := grouping.Build(d, grouping.Config{ST: 0.25, Lengths: []int{8}, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := newTestEngine(d, gr, Options{Parallelism: 1})
	if err != nil {
		tb.Fatal(err)
	}
	q := append([]float64(nil), d.Series[2].Values[4:12]...)
	return p, q
}

// TestBestMatchObservedNilAllocs pins the tracing contract: with rec == nil
// the observed entry point must allocate exactly as much as the untraced
// BestMatch — a nil *obs.Trace threads through every stage without boxing
// attrs or growing span slices.
func TestBestMatchObservedNilAllocs(t *testing.T) {
	p, q := allocProbe(t)
	// Warm the workspace pool so steady-state allocations are measured.
	if _, err := p.BestMatch(q, MatchAny); err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(100, func() {
		if _, err := p.BestMatch(q, MatchAny); err != nil {
			t.Fatal(err)
		}
	})
	traced := testing.AllocsPerRun(100, func() {
		if _, err := p.Scatter.BestMatchObserved(context.Background(), q, MatchAny, nil); err != nil {
			t.Fatal(err)
		}
	})
	if traced > base {
		t.Fatalf("BestMatchObserved(rec=nil) allocates %.1f/op vs %.1f/op untraced — disabled tracing must be free", traced, base)
	}
}

// BenchmarkBestMatchObservedNilAllocs reports the disabled-tracing hot path
// allocation count (compare against BestMatch in CI diffs).
func BenchmarkBestMatchObservedNilAllocs(b *testing.B) {
	p, q := allocProbe(b)
	if _, err := p.Scatter.BestMatchObserved(context.Background(), q, MatchAny, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Scatter.BestMatchObserved(context.Background(), q, MatchAny, nil); err != nil {
			b.Fatal(err)
		}
	}
}
