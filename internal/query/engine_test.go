package query

import (
	"context"
	"testing"

	"onex/internal/grouping"
	"onex/internal/rspace"
	"onex/internal/ts"
)

// testEngine is the query engine over one in-process shard holding every
// series — the unsharded layout — with the context-free call shapes the
// tests in this package use. Every call goes through Scatter and the
// LocalShard transport, exactly as a served base's queries do.
type testEngine struct {
	*Scatter
	gr   *grouping.Result
	base *rspace.Base
	opts Options
}

// newTestEngine derives the index layers over a grouping and assembles the
// single-shard engine: identity series and group ids, every group owned.
func newTestEngine(d *ts.Dataset, gr *grouping.Result, opts Options) (*testEngine, error) {
	b, err := rspace.New(d, gr, rspace.Options{})
	if err != nil {
		return nil, err
	}
	proc, err := New(b, opts)
	if err != nil {
		return nil, err
	}
	series := make([]int, d.N())
	for i := range series {
		series[i] = i
	}
	gids := make(map[int][]int, len(b.Lengths))
	owned := make(map[int][]bool, len(b.Lengths))
	for _, l := range b.Lengths {
		n := len(b.Entry(l).Groups)
		gids[l] = make([]int, n)
		owned[l] = make([]bool, n)
		for k := range gids[l] {
			gids[l][k], owned[l][k] = k, true
		}
	}
	ls, err := NewLocalShard(proc, 0, series, gids, owned)
	if err != nil {
		return nil, err
	}
	sc, err := NewScatter(b, opts, []ShardTransport{ls})
	if err != nil {
		return nil, err
	}
	return &testEngine{Scatter: sc, gr: gr, base: b, opts: opts}, nil
}

func buildEngine(t testing.TB, d *ts.Dataset, st float64, lengths []int, opts Options) *testEngine {
	t.Helper()
	gr, err := grouping.Build(d, grouping.Config{ST: st, Lengths: lengths, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e, err := newTestEngine(d, gr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Base returns the index the engine serves (dataset, groups, entries).
func (e *testEngine) Base() *rspace.Base { return e.base }

func (e *testEngine) BestMatch(q []float64, mode MatchMode) (Match, error) {
	return e.Scatter.BestMatch(context.Background(), q, mode)
}

// BestMatchTraced is BestMatch plus the query's work counters.
func (e *testEngine) BestMatchTraced(q []float64, mode MatchMode) (Match, Trace, error) {
	var tr Trace
	m, err := e.bestMatch(context.Background(), q, mode, &tr, nil)
	return m, tr, err
}

func (e *testEngine) BestKMatches(q []float64, mode MatchMode, k int) ([]Match, error) {
	return e.Scatter.BestKMatches(context.Background(), q, mode, k)
}

func (e *testEngine) RangeSearch(q []float64, length int, radius float64) ([]RangeResult, error) {
	return e.Scatter.RangeSearch(context.Background(), q, length, radius)
}

func (e *testEngine) RangeSearchExact(q []float64, length int, radius float64) ([]RangeResult, error) {
	return e.Scatter.RangeSearchExact(context.Background(), q, length, radius)
}

func (e *testEngine) BestMatchBatch(qs [][]float64, mode MatchMode) []BatchResult {
	return e.Scatter.BestMatchBatch(context.Background(), qs, mode)
}

func (e *testEngine) lengthOrder(queryLen int) []int { return e.global.lengthOrder(queryLen) }

// AdaptThreshold adapts the engine's grouping to ST′ (Sec. 5.2) and
// serves the result through a fresh single-shard engine.
func (e *testEngine) AdaptThreshold(stPrime float64) (*testEngine, error) {
	gr, err := AdaptThreshold(e.base.Dataset, e.gr, stPrime)
	if err != nil {
		return nil, err
	}
	return newTestEngine(e.base.Dataset, gr, e.opts)
}
