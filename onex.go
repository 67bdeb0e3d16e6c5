// Package onex is a Go implementation of ONEX — "Interactive Time Series
// Exploration Powered by the Marriage of Similarity Distances" (Neamtu,
// Ahsan, Rundensteiner, Sarkozy; PVLDB 10(3), 2016).
//
// ONEX answers time-warped similarity queries interactively by splitting the
// work between two distances: an offline pass clusters every subsequence of
// the dataset into compact similarity groups using the cheap Euclidean
// distance, and online queries then explore only the group representatives
// with Dynamic Time Warping. A proven ED↔DTW triangle inequality (paper
// Lemma 2) guarantees that a representative within ST/2 of the query vouches
// for its whole group.
//
// # Quick start
//
//	base, err := onex.Build("demo", series, onex.Options{ST: 0.2})
//	if err != nil { ... }
//	match, err := base.BestMatch(query, onex.MatchAny)       // Q1
//	patterns, err := base.Seasonal(seriesID, 30)             // Q2
//	rng, err := base.RecommendThreshold(onex.Strict, -1)     // Q3
//	looser, err := base.WithThreshold(0.4)                   // Sec. 5.2
//
// The package is stdlib-only and safe for concurrent queries against a
// built Base.
package onex

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"

	"onex/internal/core"
	"onex/internal/obs"
	"onex/internal/query"
	"onex/internal/rspace"
	"onex/internal/shard"
	"onex/internal/ts"
)

// Series is one input time series: an optional label and its observations.
type Series struct {
	// Label is free-form metadata (class label, ticker symbol, …).
	Label string
	// Values holds the observations in time order.
	Values []float64
}

// Build constructs an ONEX base over the given series. The input is copied
// and (by default) min-max normalized dataset-wide before indexing, exactly
// as the paper's experiments do; callers keep their raw slices.
func Build(name string, series []Series, opts Options) (*Base, error) {
	if len(series) == 0 {
		return nil, errors.New("onex: no input series")
	}
	d := &ts.Dataset{Name: name}
	for _, s := range series {
		d.Append(s.Label, append([]float64(nil), s.Values...))
	}
	return buildDataset(d, opts)
}

// buildDataset is the shared entry for Build and the internal harness.
func buildDataset(d *ts.Dataset, opts Options) (*Base, error) {
	cfg, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	eng, err := shard.Build(d, cfg, opts.Shards, opts.ShardWorkers)
	if err != nil {
		return nil, err
	}
	return &Base{eng: eng, opts: opts}, nil
}

// Base is a built ONEX knowledge base: the similarity groups of every
// indexed subsequence length, their representatives, the GTI/LSI index
// layers, and the Similarity Parameter Space. A Base is immutable and safe
// for concurrent queries. With Options.Shards > 1 the base serves through
// the intra-dataset sharded engine (series hash-partitioned across shards,
// queries scattered and gathered) — answers are identical at every shard
// count.
type Base struct {
	eng  *shard.Engine
	opts Options
}

// ErrBuildCanceled is returned by Build when Options.Cancel fires before
// the offline construction completes.
var ErrBuildCanceled = core.ErrCanceled

// ST returns the similarity threshold the base was built with.
func (b *Base) ST() float64 { return b.eng.ST() }

// Name returns the dataset name the base was built over.
func (b *Base) Name() string { return b.eng.Name() }

// NumSeries returns the number of indexed series.
func (b *Base) NumSeries() int { return b.eng.NumSeries() }

// Shards returns the serving layout's shard count (1 for the default
// single-shard layout).
func (b *Base) Shards() int { return b.eng.ShardCount() }

// LayoutSignature fingerprints the serving layout (shard count plus each
// shard's series/subsequence population). Result caches keyed on a base
// should fold it in so the same data served under a different shard layout
// never aliases a previous incarnation's entries.
func (b *Base) LayoutSignature() uint64 { return b.eng.LayoutSignature() }

// Lengths returns the indexed subsequence lengths in increasing order.
func (b *Base) Lengths() []int {
	return b.eng.Lengths()
}

// BestMatch answers similarity queries (class I, Q1): the subsequence most
// similar to q under DTW. MatchExact restricts candidates to len(q);
// MatchAny searches every indexed length with the paper's length-ordering
// and early-stop optimizations.
func (b *Base) BestMatch(q []float64, mode MatchMode) (Match, error) {
	return b.BestMatchContext(context.Background(), q, mode)
}

// BestMatchContext is BestMatch under a context: a canceled or expired ctx
// stops the search between lengths and rounds — at every shard count,
// in-process or distributed — and returns ctx's error. Cancellation only
// abandons work — any answer returned is still exact.
func (b *Base) BestMatchContext(ctx context.Context, q []float64, mode MatchMode) (Match, error) {
	m, err := b.eng.BestMatch(ctx, q, query.MatchMode(mode))
	if err != nil {
		return Match{}, err
	}
	return b.toPublicMatch(m), nil
}

// BestMatchObserved is BestMatch with optional tracing: a non-nil rec
// records per-stage spans (scan, refine — per-shard spans when the layout
// is sharded) and the query's work counters. Tracing only observes — the
// answer is bit-identical to BestMatch, and a nil rec adds no overhead on
// the search hot path. ctx carries cancellation and the request id that
// tags distributed per-shard work (see BestMatchContext).
func (b *Base) BestMatchObserved(ctx context.Context, q []float64, mode MatchMode, rec *obs.Trace) (Match, error) {
	m, err := b.eng.BestMatchObserved(ctx, q, query.MatchMode(mode), rec)
	if err != nil {
		return Match{}, err
	}
	return b.toPublicMatch(m), nil
}

func (b *Base) toPublicMatch(m query.Match) Match {
	values := b.eng.Window(m.SeriesID, m.Start, m.Length)
	return Match{
		SeriesID: m.SeriesID,
		Start:    m.Start,
		Length:   m.Length,
		Distance: m.Dist,
		Values:   append([]float64(nil), values...),
	}
}

// BatchResult is one BestMatchBatch outcome: the match for its query, or a
// per-query error (ragged, empty or non-finite queries fail individually
// without affecting the rest of the batch).
type BatchResult struct {
	Match Match
	Err   error
}

// BestMatchBatch answers many Q1 queries in one call, fanning them across
// the base's worker pool (Options.Parallelism workers) and amortizing the
// per-query setup over the batch. Results are positional — out[i] answers
// qs[i] — and each equals what BestMatch(qs[i], mode) would return, errors
// included. Malformed queries never panic; a nil or empty batch returns an
// empty slice.
func (b *Base) BestMatchBatch(ctx context.Context, qs [][]float64, mode MatchMode) []BatchResult {
	rs := b.eng.BestMatchBatch(ctx, qs, query.MatchMode(mode))
	out := make([]BatchResult, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			out[i] = BatchResult{Err: r.Err}
			continue
		}
		out[i] = BatchResult{Match: b.toPublicMatch(r.Match)}
	}
	return out
}

// KNNQuery is one item of a BestKMatchesBatch: the query sequence, its
// match mode, and how many neighbours to return (K ≤ 1 asks for the single
// best match).
type KNNQuery struct {
	Query []float64
	Mode  MatchMode
	K     int
}

// KNNBatchResult is one positional BestKMatchesBatch outcome: the ordered
// neighbours for its query, or a per-query error.
type KNNBatchResult struct {
	Matches []Match
	Err     error
}

// BestKMatchesBatch answers many k-NN queries in one call through the same
// worker-split scaffold as BestMatchBatch. Results are positional — out[i]
// answers qs[i] and equals what BestKMatches(qs[i].Query, qs[i].Mode,
// qs[i].K) would return, errors included.
func (b *Base) BestKMatchesBatch(ctx context.Context, qs []KNNQuery) []KNNBatchResult {
	in := make([]query.KNNQuery, len(qs))
	for i, q := range qs {
		in[i] = query.KNNQuery{Query: q.Query, Mode: query.MatchMode(q.Mode), K: q.K}
	}
	rs := b.eng.BestKMatchesBatch(ctx, in)
	out := make([]KNNBatchResult, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			out[i] = KNNBatchResult{Err: r.Err}
			continue
		}
		ms := make([]Match, 0, len(r.Matches))
		for _, m := range r.Matches {
			ms = append(ms, b.toPublicMatch(m))
		}
		out[i] = KNNBatchResult{Matches: ms}
	}
	return out
}

// BestKMatches generalizes BestMatch to the k nearest subsequences, ordered
// best first. Fewer than k results are returned only when the base holds
// fewer candidates.
func (b *Base) BestKMatches(q []float64, mode MatchMode, k int) ([]Match, error) {
	ms, err := b.eng.BestKMatches(context.Background(), q, query.MatchMode(mode), k)
	if err != nil {
		return nil, err
	}
	out := make([]Match, 0, len(ms))
	for _, m := range ms {
		out = append(out, b.toPublicMatch(m))
	}
	return out, nil
}

// BestKMatchesObserved is BestKMatches with optional tracing and context
// (see BestMatchObserved).
func (b *Base) BestKMatchesObserved(ctx context.Context, q []float64, mode MatchMode, k int, rec *obs.Trace) ([]Match, error) {
	ms, err := b.eng.BestKMatchesObserved(ctx, q, query.MatchMode(mode), k, rec)
	if err != nil {
		return nil, err
	}
	out := make([]Match, 0, len(ms))
	for _, m := range ms {
		out = append(out, b.toPublicMatch(m))
	}
	return out, nil
}

// RangeMatch is one RangeSearch result.
type RangeMatch struct {
	Match
	// Guaranteed marks matches admitted wholesale by the paper's Lemma 2
	// guarantee (group representative within ST/2 of the query). Under
	// RangeSearch their Distance is the ST upper bound, not an exact value —
	// do not sort or re-threshold on it; use RangeSearchExact when exact
	// distances matter.
	Guaranteed bool
}

// RangeSearch returns every subsequence of the given length whose
// normalized DTW to q is within radius. When radius ≥ the build threshold,
// whole groups are admitted through the Lemma 2 triangle inequality without
// per-member DTW computations.
func (b *Base) RangeSearch(q []float64, length int, radius float64) ([]RangeMatch, error) {
	rs, err := b.eng.RangeSearch(context.Background(), q, length, radius)
	if err != nil {
		return nil, err
	}
	out := make([]RangeMatch, 0, len(rs))
	for _, r := range rs {
		out = append(out, RangeMatch{Match: b.toPublicMatch(r.Match), Guaranteed: r.Guaranteed})
	}
	return out, nil
}

// RangeSearchExact is RangeSearch with exact distances on the guaranteed
// path: members admitted through the Lemma 2 guarantee get their true DTW
// computed (instead of reporting the ST upper bound) and are filtered
// against the radius like every other candidate. The result set is exactly
// the subsequences within radius, independent of the base's grouping, so
// Distance is always safe to sort or re-threshold on.
func (b *Base) RangeSearchExact(q []float64, length int, radius float64) ([]RangeMatch, error) {
	rs, err := b.eng.RangeSearchExact(context.Background(), q, length, radius)
	if err != nil {
		return nil, err
	}
	out := make([]RangeMatch, 0, len(rs))
	for _, r := range rs {
		out = append(out, RangeMatch{Match: b.toPublicMatch(r.Match), Guaranteed: r.Guaranteed})
	}
	return out, nil
}

// RangeSearchObserved is RangeSearch/RangeSearchExact with optional tracing
// and context (see BestMatchObserved); exact selects the RangeSearchExact
// distance semantics.
func (b *Base) RangeSearchObserved(ctx context.Context, q []float64, length int, radius float64, exact bool, rec *obs.Trace) ([]RangeMatch, error) {
	rs, err := b.eng.RangeSearchObserved(ctx, q, length, radius, exact, rec)
	if err != nil {
		return nil, err
	}
	out := make([]RangeMatch, 0, len(rs))
	for _, r := range rs {
		out = append(out, RangeMatch{Match: b.toPublicMatch(r.Match), Guaranteed: r.Guaranteed})
	}
	return out, nil
}

// RangeQuery is one item of a RangeSearchBatch; Exact selects
// RangeSearchExact semantics for that item.
type RangeQuery struct {
	Query  []float64
	Length int
	Radius float64
	Exact  bool
}

// RangeBatchResult is one positional RangeSearchBatch outcome.
type RangeBatchResult struct {
	Matches []RangeMatch
	Err     error
}

// RangeSearchBatch answers many range queries in one call through the same
// worker-split scaffold as BestMatchBatch. Results are positional and each
// equals the corresponding RangeSearch or RangeSearchExact call, errors
// included.
func (b *Base) RangeSearchBatch(ctx context.Context, qs []RangeQuery) []RangeBatchResult {
	in := make([]query.RangeQuery, len(qs))
	for i, q := range qs {
		in[i] = query.RangeQuery{Query: q.Query, Length: q.Length, Radius: q.Radius, Exact: q.Exact}
	}
	rs := b.eng.RangeSearchBatch(ctx, in)
	out := make([]RangeBatchResult, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			out[i] = RangeBatchResult{Err: r.Err}
			continue
		}
		ms := make([]RangeMatch, 0, len(r.Results))
		for _, m := range r.Results {
			ms = append(ms, RangeMatch{Match: b.toPublicMatch(m.Match), Guaranteed: m.Guaranteed})
		}
		out[i] = RangeBatchResult{Matches: ms}
	}
	return out
}

// Append grows one existing series in time — streaming point ingestion.
// Only the suffix subsequences (windows overlapping the appended points)
// are pushed through Algorithm 1's nearest-representative assignment, and
// the index layers refresh incrementally for the touched groups, so
// maintenance costs O(new-subsequences × g × L) distance work instead of a
// rebuild. When the accumulated drift (fraction of incrementally assigned
// members since the last full build) would cross Options.RebuildDrift,
// Append runs the full offline construction over the final data instead —
// producing exactly the base a from-scratch Build over the same normalized
// data would for the indexed length set (which stays pinned: growing a
// series never adds new indexed lengths) — and resets the drift to zero.
//
// The receiver stays valid and unchanged (the same immutability contract as
// Extend); the grown base is returned. Points are scaled into the base's
// value space with the original dataset's min/max under the default
// normalization; NormalizePerSeries bases cannot Append (the original
// per-series scale is not retained).
func (b *Base) Append(seriesID int, points ...float64) (*Base, error) {
	eng, err := b.eng.Append(seriesID, points)
	if err != nil {
		return nil, err
	}
	return &Base{eng: eng, opts: b.opts}, nil
}

// Drift reports the fraction of indexed subsequences assigned incrementally
// (Append/Extend) since the last full offline build — the staleness signal
// of the amortized rebuild policy (see Options.RebuildDrift).
func (b *Base) Drift() float64 { return b.eng.Drift() }

// Extend incrementally adds series to the base: only the new subsequences
// are clustered (joining existing groups or founding new ones per
// Algorithm 1's assignment rule) and the indexes are re-derived
// incrementally. Like Append, Extend participates in the amortized rebuild
// policy — once the extension would push drift past Options.RebuildDrift
// the full offline construction re-runs instead. The receiver stays valid;
// the extended base is returned. New series IDs continue after the
// existing ones.
func (b *Base) Extend(series []Series) (*Base, error) {
	in := make([]*ts.Series, 0, len(series))
	for _, s := range series {
		in = append(in, &ts.Series{Label: s.Label, Values: append([]float64(nil), s.Values...)})
	}
	eng, err := b.eng.Extend(in)
	if err != nil {
		return nil, err
	}
	return &Base{eng: eng, opts: b.opts}, nil
}

// Seasonal answers the user-driven class II query: the recurring similarity
// patterns of one series — every group of the given length holding two or
// more subsequences of that series.
func (b *Base) Seasonal(seriesID, length int) ([]Pattern, error) {
	gs, err := b.eng.SeasonalSample(seriesID, length)
	if err != nil {
		return nil, err
	}
	return b.toPatterns(gs), nil
}

// SeasonalAll answers the data-driven class II query: every recurring
// similarity pattern of the given length across the whole dataset.
func (b *Base) SeasonalAll(length int) ([]Pattern, error) {
	gs, err := b.eng.SeasonalAll(length)
	if err != nil {
		return nil, err
	}
	return b.toPatterns(gs), nil
}

// SeasonalObserved is Seasonal with optional tracing: the span carries the
// enumeration sizes (seasonal queries run no distance cascade).
func (b *Base) SeasonalObserved(seriesID, length int, rec *obs.Trace) ([]Pattern, error) {
	gs, err := b.eng.SeasonalSampleObserved(seriesID, length, rec)
	if err != nil {
		return nil, err
	}
	return b.toPatterns(gs), nil
}

// SeasonalAllObserved is SeasonalAll with optional tracing.
func (b *Base) SeasonalAllObserved(length int, rec *obs.Trace) ([]Pattern, error) {
	gs, err := b.eng.SeasonalAllObserved(length, rec)
	if err != nil {
		return nil, err
	}
	return b.toPatterns(gs), nil
}

func (b *Base) toPatterns(gs []query.SeasonalGroup) []Pattern {
	out := make([]Pattern, 0, len(gs))
	for _, g := range gs {
		p := Pattern{
			Length:         g.Length,
			Representative: append([]float64(nil), g.Rep...),
		}
		for _, m := range g.Members {
			p.Occurrences = append(p.Occurrences, Occurrence{
				SeriesID: m.SeriesIdx,
				Start:    m.Start,
			})
		}
		out = append(out, p)
	}
	return out
}

// SeasonalQuery is one item of a SeasonalBatch. SeriesID < 0 asks the
// data-driven form (SeasonalAll); otherwise the user-driven form over that
// series.
type SeasonalQuery struct {
	SeriesID int
	Length   int
}

// SeasonalBatchResult is one positional SeasonalBatch outcome.
type SeasonalBatchResult struct {
	Patterns []Pattern
	Err      error
}

// SeasonalBatch answers many seasonal queries in one call. Results are
// positional and each equals the corresponding Seasonal or SeasonalAll
// call, errors included.
func (b *Base) SeasonalBatch(qs []SeasonalQuery) []SeasonalBatchResult {
	in := make([]query.SeasonalQuery, len(qs))
	for i, q := range qs {
		in[i] = query.SeasonalQuery{SeriesID: q.SeriesID, Length: q.Length}
	}
	rs := b.eng.SeasonalBatch(in)
	out := make([]SeasonalBatchResult, len(rs))
	for i, r := range rs {
		if r.Err != nil {
			out[i] = SeasonalBatchResult{Err: r.Err}
			continue
		}
		out[i] = SeasonalBatchResult{Patterns: b.toPatterns(r.Groups)}
	}
	return out
}

// RecommendThreshold answers class III queries: the similarity-threshold
// range realizing a similarity degree (Strict/Medium/Loose, Sec. 4.2).
// length < 0 uses the dataset-global critical values; otherwise the values
// local to that subsequence length.
func (b *Base) RecommendThreshold(d Degree, length int) (Range, error) {
	lo, hi, err := b.eng.Recommend(rspace.Degree(d), length)
	if err != nil {
		return Range{}, err
	}
	return Range{Low: lo, High: hi}, nil
}

// DegreeOf classifies a threshold on the base's Strict/Medium/Loose scale.
func (b *Base) DegreeOf(st float64) Degree {
	return Degree(b.eng.DegreeOf(st))
}

// WithThreshold derives a base for a different similarity threshold using
// the Sec. 5.2 split/merge adaptation — no reclustering of the raw data —
// over the same shard layout (in-process or distributed); answers are
// identical at every shard count. The receiver is unchanged. Adapted bases
// answer every query class but cannot Append, Extend or Save (maintain or
// save the original and re-adapt).
func (b *Base) WithThreshold(stPrime float64) (*Base, error) {
	eng, err := b.eng.WithThreshold(stPrime)
	if err != nil {
		return nil, err
	}
	return &Base{eng: eng, opts: b.opts}, nil
}

// Save serializes the base (normalized data, similarity groups, build
// configuration) to w so it can be reopened with Load without re-running
// the offline construction. Threshold-adapted bases cannot be saved — save
// the original and re-adapt after loading.
func (b *Base) Save(w io.Writer) error {
	return b.eng.Save(w)
}

// Load reopens a base written by Save. The derived index layers are rebuilt
// from the stored groups; queries answer identically to the saved base.
func Load(r io.Reader) (*Base, error) {
	return LoadDistributed(r, nil)
}

// LoadDistributed is Load with a serving-time worker list: a non-empty
// workers slice re-derives the snapshot's shards and ships them to the
// given worker processes (shard s to workers[s%len(workers)]), so the same
// snapshot serves in-process or distributed. Worker URLs are never
// persisted — they are this process's deployment, not the base's state.
func LoadDistributed(r io.Reader, workers []string) (*Base, error) {
	eng, err := shard.Load(r, workers)
	if err != nil {
		return nil, err
	}
	return &Base{eng: eng, opts: Options{ShardWorkers: append([]string(nil), workers...)}}, nil
}

// SaveFile snapshots the base to path atomically: the stream is written to
// a temporary file in the same directory and renamed into place, so readers
// never observe a partial snapshot and a crashed save leaves any previous
// snapshot intact.
func (b *Base) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := b.Save(tmp); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// LoadFile reopens a base snapshotted with SaveFile.
func LoadFile(path string) (*Base, error) {
	return LoadFileDistributed(path, nil)
}

// LoadFileDistributed is LoadFile with a serving-time worker list (see
// LoadDistributed).
func LoadFileDistributed(path string, workers []string) (*Base, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDistributed(f, workers)
}

// ShardWorkers reports the remote worker processes serving the base's
// shards (empty for in-process layouts; a fresh slice).
func (b *Base) ShardWorkers() []string { return b.eng.WorkerURLs() }

// Close releases the base's transport resources — idle connections to
// remote shard workers; in-process bases hold none and Close is a no-op.
// Maintenance steps (Append, Extend) share unchanged shard state between
// base incarnations, so close only the final base of a lineage, at
// shutdown. Closing never touches worker-side state: the workers retain
// their shipped shards and a later LoadDistributed re-ships idempotently.
func (b *Base) Close() error { return b.eng.Close() }

// Stats reports the size and construction cost of the base (Table 4), plus
// the maintenance and shard-layout observability counters.
func (b *Base) Stats() Stats {
	st := Stats{
		Representatives: b.eng.TotalGroups(),
		Subsequences:    b.eng.TotalSubseq(),
		IndexBytes:      b.eng.SizeBytes(),
		BuildTime:       b.eng.BuildTime(),
		STHalf:          b.eng.STHalf(),
		STFinal:         b.eng.STFinal(),
		Drift:           b.eng.Drift(),
		Rebuilds:        b.eng.Rebuilds(),
		LastRebuild:     b.eng.LastRebuild(),
		Shards:          b.eng.ShardCount(),
	}
	qc := b.eng.QueryCounters()
	st.Query = QueryStats{
		Queries:       qc.Queries,
		RepsExamined:  qc.RepsExamined,
		PrunedByKim:   qc.PrunedByKim,
		PrunedByKeogh: qc.PrunedByKeogh,
		DTWComputed:   qc.DTWComputed,
		MembersTested: qc.MembersTested,
	}
	for _, s := range b.eng.ShardStats() {
		st.PerShard = append(st.PerShard, ShardStat{
			Shard:        s.Shard,
			Series:       s.Series,
			Groups:       s.Groups,
			Subsequences: s.Subsequences,
			IndexBytes:   s.IndexBytes,
		})
	}
	return st
}
