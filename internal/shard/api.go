package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"time"

	"onex/internal/obs"
	"onex/internal/query"
	"onex/internal/rspace"
)

// ---- queries -----------------------------------------------------------
//
// Query methods take a context: a sharded engine fans per-shard work out
// through its ShardTransports (goroutines in-process, HTTP calls when the
// layout is remote), and a canceled or timed-out ctx stops the remaining
// fan-out between lengths and rounds, at every shard count. Cancellation
// only ever abandons work — an answer returned despite a racing cancel is
// still exact. Seasonal queries read the global grouping at the
// coordinator and take no ctx.

// BestMatch answers Q1 (query.Scatter.BestMatch); answers are identical at
// every shard count.
func (e *Engine) BestMatch(ctx context.Context, q []float64, mode query.MatchMode) (query.Match, error) {
	return e.scatter.BestMatch(ctx, q, mode)
}

// BestMatchObserved is BestMatch with optional span/work recording on a
// non-nil rec (nil rec adds no overhead; answers are identical either way).
func (e *Engine) BestMatchObserved(ctx context.Context, q []float64, mode query.MatchMode, rec *obs.Trace) (query.Match, error) {
	return e.scatter.BestMatchObserved(ctx, q, mode, rec)
}

// BestMatchBatch answers many Q1 queries positionally with per-query errors.
func (e *Engine) BestMatchBatch(ctx context.Context, qs [][]float64, mode query.MatchMode) []query.BatchResult {
	return e.scatter.BestMatchBatch(ctx, qs, mode)
}

// BestKMatches answers the k-NN generalization of Q1.
func (e *Engine) BestKMatches(ctx context.Context, q []float64, mode query.MatchMode, k int) ([]query.Match, error) {
	return e.scatter.BestKMatches(ctx, q, mode, k)
}

// BestKMatchesObserved is BestKMatches with optional span/work recording.
func (e *Engine) BestKMatchesObserved(ctx context.Context, q []float64, mode query.MatchMode, k int, rec *obs.Trace) ([]query.Match, error) {
	return e.scatter.BestKMatchesObserved(ctx, q, mode, k, rec)
}

// BestKMatchesBatch answers many k-NN queries positionally with per-query
// errors; each item equals the corresponding BestKMatches call.
func (e *Engine) BestKMatchesBatch(ctx context.Context, qs []query.KNNQuery) []query.KNNBatchResult {
	return e.scatter.BestKMatchesBatch(ctx, qs)
}

// RangeSearchBatch answers many range queries positionally with per-query
// errors; each item equals the corresponding RangeSearch(Exact) call.
func (e *Engine) RangeSearchBatch(ctx context.Context, qs []query.RangeQuery) []query.RangeBatchResult {
	return e.scatter.RangeSearchBatch(ctx, qs)
}

// SeasonalBatch answers many seasonal queries positionally with per-query
// errors; SeriesID < 0 selects the data-driven form.
func (e *Engine) SeasonalBatch(qs []query.SeasonalQuery) []query.SeasonalBatchResult {
	return e.scatter.SeasonalBatch(qs)
}

// QueryCounters snapshots the engine's lifetime query work tally (queries
// answered across every family plus the Q1 bound-pruning counters).
func (e *Engine) QueryCounters() query.CountersSnapshot {
	return e.scatter.Counters().Snapshot()
}

// RangeSearch answers a range query (ST-upper-bound distances on the
// guaranteed path).
func (e *Engine) RangeSearch(ctx context.Context, q []float64, length int, radius float64) ([]query.RangeResult, error) {
	return e.scatter.RangeSearch(ctx, q, length, radius)
}

// RangeSearchExact answers a range query with exact distances everywhere.
func (e *Engine) RangeSearchExact(ctx context.Context, q []float64, length int, radius float64) ([]query.RangeResult, error) {
	return e.scatter.RangeSearchExact(ctx, q, length, radius)
}

// RangeSearchObserved answers a range query with optional span/work
// recording; exact selects the RangeSearchExact distance semantics.
func (e *Engine) RangeSearchObserved(ctx context.Context, q []float64, length int, radius float64, exact bool, rec *obs.Trace) ([]query.RangeResult, error) {
	return e.scatter.RangeSearchObserved(ctx, q, length, radius, exact, rec)
}

// SeasonalSample answers the user-driven class II query.
func (e *Engine) SeasonalSample(seriesID, length int) ([]query.SeasonalGroup, error) {
	return e.scatter.SeasonalSample(seriesID, length)
}

// SeasonalSampleObserved is SeasonalSample with optional span recording.
func (e *Engine) SeasonalSampleObserved(seriesID, length int, rec *obs.Trace) ([]query.SeasonalGroup, error) {
	return e.scatter.SeasonalSampleObserved(seriesID, length, rec)
}

// SeasonalAll answers the data-driven class II query.
func (e *Engine) SeasonalAll(length int) ([]query.SeasonalGroup, error) {
	return e.scatter.SeasonalAll(length)
}

// SeasonalAllObserved is SeasonalAll with optional span recording.
func (e *Engine) SeasonalAllObserved(length int, rec *obs.Trace) ([]query.SeasonalGroup, error) {
	return e.scatter.SeasonalAllObserved(length, rec)
}

// Recommend answers the class III threshold recommendation. The critical
// values come from the ONE global grouping every layout shares, computed
// once at assemble time (see assemble) — never aggregated from per-shard
// structures — so the recommendation is bit-identical at every shard
// count. length < 0 selects the dataset-global values, mirroring
// rspace.Base.Recommend.
func (e *Engine) Recommend(d rspace.Degree, length int) (lo, hi float64, err error) {
	half, final, err := e.globalCriticalValues(length)
	if err != nil {
		return 0, 0, err
	}
	switch d {
	case rspace.Strict:
		return 0, half, nil
	case rspace.Medium:
		return half, final, nil
	case rspace.Loose:
		return final, math.Inf(1), nil
	default:
		return 0, 0, errors.New("rspace: unknown similarity degree")
	}
}

// DegreeOf classifies a threshold on the engine's S/M/L scale. The
// classification reads the precomputed dataset-global critical values
// (which exist for every assembled engine, so no error path remains —
// the previous implementation silently discarded a lookup error and
// classified against zero thresholds).
func (e *Engine) DegreeOf(st float64) rspace.Degree {
	switch {
	case st < e.globalSTHalf:
		return rspace.Strict
	case st < e.globalSTFinal:
		return rspace.Medium
	default:
		return rspace.Loose
	}
}

// globalCriticalValues returns the global grouping's critical thresholds;
// length < 0 selects the dataset-global maxima over lengths.
func (e *Engine) globalCriticalValues(length int) (half, final float64, err error) {
	if length < 0 {
		return e.globalSTHalf, e.globalSTFinal, nil
	}
	half, ok := e.spHalf[length]
	if !ok {
		return 0, 0, errors.New("rspace: length not indexed")
	}
	return half, e.spFinal[length], nil
}

// WithThreshold adapts the engine to a new similarity threshold (Sec. 5.2):
// the split/merge rules run once over the global grouping
// (query.AdaptThreshold) and the adapted grouping is re-assembled into the
// same shard layout — in-process or on the same remote workers — so adapted
// answers are identical at every shard count. The receiver is unchanged.
// Adapted engines answer every query class but refuse Append, Extend and
// Save (maintain or persist the original base, then re-adapt).
func (e *Engine) WithThreshold(stPrime float64) (*Engine, error) {
	start := time.Now()
	gr, err := query.AdaptThreshold(e.data, e.grouped, stPrime)
	if err != nil {
		return nil, err
	}
	next := &Engine{
		shards: e.shards, workerURLs: e.workerURLs,
		cfg: e.cfg, normMin: e.normMin, normMax: e.normMax,
		data: e.data, grouped: gr, adapted: true,
	}
	if err := next.assemble(nil, nil, nil); err != nil {
		return nil, err
	}
	next.buildTime = time.Since(start)
	return next, nil
}

// ---- accessors ---------------------------------------------------------

// ST returns the build similarity threshold.
func (e *Engine) ST() float64 {
	return e.grouped.ST
}

// Name returns the dataset name.
func (e *Engine) Name() string {
	return e.data.Name
}

// NumSeries returns the number of indexed series.
func (e *Engine) NumSeries() int {
	return e.data.N()
}

// Lengths returns the indexed subsequence lengths, ascending (a fresh
// slice).
func (e *Engine) Lengths() []int {
	return append([]int(nil), e.grouped.Lengths...)
}

// Window returns the normalized values of one indexed subsequence. The
// slice aliases the engine's (immutable) data; callers must not mutate it.
func (e *Engine) Window(seriesID, start, length int) []float64 {
	return e.data.Series[seriesID].Values[start : start+length]
}

// Drift reports the incremental-member fraction since the last full build.
func (e *Engine) Drift() float64 {
	return e.grouped.Drift()
}

// BuildTime reports the offline construction cost (or, after a snapshot
// reload, the original build's).
func (e *Engine) BuildTime() time.Duration {
	return e.buildTime
}

// Rebuilds counts drift-triggered full rebuilds along the maintenance
// lineage.
func (e *Engine) Rebuilds() int64 {
	return e.rebuilds
}

// LastRebuild is the wall-clock cost of the most recent drift-triggered
// rebuild (zero if none).
func (e *Engine) LastRebuild() time.Duration {
	return e.lastRebuild
}

// TotalGroups counts representatives across all lengths.
func (e *Engine) TotalGroups() int {
	return e.grouped.TotalGroups()
}

// TotalSubseq counts indexed subsequences.
func (e *Engine) TotalSubseq() int64 {
	return e.grouped.TotalSubseq
}

// SizeBytes estimates the resident index size — for a sharded layout, the
// sum of the per-shard GTI+LSI structures (sparse top-k Dc neighbor lists,
// envelopes and scan orders over each shard's restricted group sets).
func (e *Engine) SizeBytes() int64 {
	var total int64
	for _, p := range e.parts {
		total += p.transport.Stats().IndexBytes
	}
	return total
}

// STHalf returns the dataset-global half-merge critical threshold, computed
// from the global grouping (bit-identical at every shard count; see
// Recommend).
func (e *Engine) STHalf() float64 {
	return e.globalSTHalf
}

// STFinal returns the dataset-global all-merge critical threshold.
func (e *Engine) STFinal() float64 {
	return e.globalSTFinal
}

// ---- shard observability ----------------------------------------------

// Stat describes one shard of the layout.
type Stat struct {
	// Shard is the shard index.
	Shard int
	// Series counts the series routed to this shard.
	Series int
	// Groups counts the restricted groups across lengths (a group spanning
	// k shards appears in k of these counts).
	Groups int
	// Subsequences counts the indexed subsequences resident in the shard.
	Subsequences int64
	// IndexBytes estimates the shard's GTI+LSI size.
	IndexBytes int64
}

// ShardCount reports the serving layout's shard count.
func (e *Engine) ShardCount() int {
	return e.shards
}

// ShardStats describes each shard of the layout.
func (e *Engine) ShardStats() []Stat {
	out := make([]Stat, len(e.parts))
	for s, p := range e.parts {
		st := p.transport.Stats()
		out[s] = Stat{
			Shard:        s,
			Series:       st.Series,
			Groups:       st.Groups,
			Subsequences: st.Subsequences,
			IndexBytes:   st.IndexBytes,
		}
	}
	return out
}

// WorkerURLs reports the remote worker processes serving the layout (a
// fresh slice; empty for in-process layouts).
func (e *Engine) WorkerURLs() []string {
	return append([]string(nil), e.workerURLs...)
}

// Close releases the engine's transport resources (idle worker
// connections). Maintenance steps share unaffected parts — and their
// transports — between engine incarnations, so close only the final engine
// of a lineage, at shutdown.
func (e *Engine) Close() error {
	var first error
	for _, p := range e.parts {
		if p.transport == nil {
			continue
		}
		if err := p.transport.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// LayoutSignature fingerprints the serving layout — shard count plus each
// shard's series and subsequence population. Serving caches fold it into
// their keys so re-registering the same data under a different shard layout
// can never alias a previous incarnation's entries. O(shards), cheap enough
// to compute per query.
func (e *Engine) LayoutSignature() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, p := range e.parts {
		put(uint64(len(p.series)))
		put(uint64(p.transport.Stats().Subsequences))
	}
	put(uint64(e.shards))
	return h.Sum64()
}
