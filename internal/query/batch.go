package query

import (
	"context"

	"onex/internal/parallel"
)

// BatchResult pairs one batch query with its outcome: exactly one of Match
// (with Err == nil) or Err is meaningful.
type BatchResult struct {
	Match Match
	Trace Trace
	Err   error
}

// KNNQuery is one item of a k-NN batch. K ≤ 1 asks for the single best
// match (identical answer to BestMatch).
type KNNQuery struct {
	Query []float64
	Mode  MatchMode
	K     int
}

// KNNBatchResult is one positional k-NN batch outcome.
type KNNBatchResult struct {
	Matches []Match
	Err     error
}

// RangeQuery is one item of a range batch; Exact selects
// RangeSearchExact semantics.
type RangeQuery struct {
	Query  []float64
	Length int
	Radius float64
	Exact  bool
}

// RangeBatchResult is one positional range batch outcome.
type RangeBatchResult struct {
	Results []RangeResult
	Err     error
}

// SeasonalQuery is one item of a seasonal batch. SeriesID < 0 asks the
// data-driven form (SeasonalAll); otherwise the user-driven form over that
// series.
type SeasonalQuery struct {
	SeriesID int
	Length   int
}

// SeasonalBatchResult is one positional seasonal batch outcome.
type SeasonalBatchResult struct {
	Groups []SeasonalGroup
	Err    error
}

// runBatch is the one batch scaffold every query family shares. The worker budget splits between the two
// parallelism axes: with at least budget queries each item runs its standard
// single-query pipeline on one worker (cross-query parallelism has the least
// synchronization), while smaller batches hand each item the leftover budget
// as intra-query fan-out — so a 1-item batch is exactly as fast as the
// single call. The split is answer-invariant: every per-item pipeline
// returns identical results at every worker count, so it is purely a
// scheduling decision. Results are positional — out[i] answers qs[i] — with
// per-item errors, and a nil or empty batch returns an empty slice.
func runBatch[Q, R any](budget int, qs []Q, run func(inner int, q Q) R) []R {
	out := make([]R, len(qs))
	if len(qs) == 0 {
		return out
	}
	inner := 1
	if v := budget / len(qs); v > 1 {
		inner = v
	}
	parallel.ForEach(budget, len(qs), func(i int) {
		out[i] = run(inner, qs[i])
	})
	return out
}

// BestMatchBatch answers many Q1 queries in one call through the shared
// runBatch scaffold (see runBatch for the worker split and the
// positional-errors contract). Queries are validated independently — a
// ragged, empty or non-finite query yields a per-query Err without
// affecting its neighbours; the batch never panics on malformed input. ctx
// stops the remaining per-query fan-outs when canceled (items already
// answered keep their results; canceled items carry ctx's error).
func (s *Scatter) BestMatchBatch(ctx context.Context, qs [][]float64, mode MatchMode) []BatchResult {
	return runBatch(s.global.workers, qs, func(inner int, q []float64) BatchResult {
		var tr Trace
		m, err := s.withWorkers(inner).bestMatch(ctx, q, mode, &tr, nil)
		return BatchResult{Match: m, Trace: tr, Err: err}
	})
}

// BestKMatchesBatch answers many k-NN queries positionally (runBatch
// contract); each item equals the corresponding BestKMatches call.
func (s *Scatter) BestKMatchesBatch(ctx context.Context, qs []KNNQuery) []KNNBatchResult {
	return runBatch(s.global.workers, qs, func(inner int, q KNNQuery) KNNBatchResult {
		k := q.K
		if k < 1 {
			k = 1
		}
		ms, err := s.withWorkers(inner).BestKMatches(ctx, q.Query, q.Mode, k)
		return KNNBatchResult{Matches: ms, Err: err}
	})
}

// RangeSearchBatch answers many range queries positionally (runBatch
// contract); each item equals the corresponding RangeSearch or
// RangeSearchExact call.
func (s *Scatter) RangeSearchBatch(ctx context.Context, qs []RangeQuery) []RangeBatchResult {
	return runBatch(s.global.workers, qs, func(inner int, q RangeQuery) RangeBatchResult {
		exec := s.withWorkers(inner)
		var (
			rs  []RangeResult
			err error
		)
		if q.Exact {
			rs, err = exec.RangeSearchExact(ctx, q.Query, q.Length, q.Radius)
		} else {
			rs, err = exec.RangeSearch(ctx, q.Query, q.Length, q.Radius)
		}
		return RangeBatchResult{Results: rs, Err: err}
	})
}

// SeasonalBatch answers many seasonal queries positionally (runBatch
// contract); SeriesID < 0 selects SeasonalAll. Seasonal answers read the
// global grouping at the coordinator.
func (s *Scatter) SeasonalBatch(qs []SeasonalQuery) []SeasonalBatchResult {
	return runBatch(s.global.workers, qs, func(_ int, q SeasonalQuery) SeasonalBatchResult {
		var (
			gs  []SeasonalGroup
			err error
		)
		if q.SeriesID < 0 {
			gs, err = s.global.SeasonalAll(q.Length)
		} else {
			gs, err = s.global.SeasonalSample(q.SeriesID, q.Length)
		}
		return SeasonalBatchResult{Groups: gs, Err: err}
	})
}
