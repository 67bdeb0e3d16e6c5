// Package query implements the ONEX online query processor (Algorithm 2,
// Sec. 5): similarity queries over the representative space with time-warped
// matching, seasonal-similarity queries, similarity-threshold
// recommendations, and the varying-threshold group adaptation of Sec. 5.2.
//
// There is one query engine, Scatter: it runs Algorithm 2 over one or more
// shard transports, and a single in-process LocalShard holding every series
// is the unsharded engine. Processor is the per-shard primitive holder
// behind a LocalShard (representative cascades, member evaluation rounds,
// range search) and the coordinator's view of the global grouping
// (seasonal queries, counters).
//
// All Sec. 5.3 optimizations are implemented:
//
//   - length ordering for Match=Any: the query's own length first, then
//     decreasing lengths, then increasing;
//   - median-sum representative ordering: scanning starts at the
//     representative whose Dc row-sum is the median and expands alternately
//     left/right through the sum-sorted GTI array;
//   - the cascading lower-bound chain LB_Kim → LB_Keogh (reordered, early
//     abandoning) → early-abandoning DTW against the best-so-far;
//   - the in-group pivot search: members are visited in order of
//     |ED(member, rep) − DTW(query, rep)| over the ED-sorted LSI array.
//
// # Parallel execution
//
// Options.Parallelism shards a single query across a bounded worker pool:
// the representative scan of each length fans out with a shared atomic
// best-so-far bound (early abandoning keeps pruning across workers), group
// mining evaluates pivot-walk batches concurrently, and range search shards
// across groups. The parallel paths are constructed to be *answer-invariant*:
// every pruning or patience decision is replayed against deterministic
// bounds, concurrency only decides which DTWs are computed exactly versus
// proven irrelevant, so BestMatch/BestKMatches/RangeSearch return identical
// results for every Parallelism value. Workers change only wall-clock and
// the work-accounting side of Trace: DTWComputed, PrunedByKim and
// PrunedByKeogh depend on bound-tightening timing in the parallel rep scan
// (a rep proven hopeless is counted under whichever check happened to kill
// it), while the decision-level counters — RepsExamined, MembersTested,
// LengthsVisited — are identical at every setting.
package query

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/parallel"
	"onex/internal/rspace"
)

// MatchMode selects the Q1 MATCH clause.
type MatchMode int

const (
	// MatchExact searches only subsequences of the query's own length.
	MatchExact MatchMode = iota
	// MatchAny searches subsequences of every indexed length.
	MatchAny
)

// Options tunes the processor. The zero value reproduces the paper's
// behaviour.
type Options struct {
	// DisableEarlyStop turns off the Sec. 5.3 stop rule for Match=Any
	// (stop once a representative within ST/2 has been explored) and scans
	// every indexed length instead.
	DisableEarlyStop bool `json:"disableEarlyStop"`
	// CandidateLimit bounds how many members of the selected group are
	// verified with DTW (pivot-ordered). 0 means no fixed limit; the walk
	// is then bounded by Patience alone.
	CandidateLimit int `json:"candidateLimit"`
	// Patience reproduces the paper's bounded pivot walk (Sec. 5.3: expand
	// from the pivot "until we find the best match"): mining stops after
	// this many consecutive non-improving members. 0 selects
	// DefaultPatience; negative values disable the cut (exhaustive group
	// verification). Large groups at loose thresholds make the exhaustive
	// walk degenerate toward a linear scan, inverting the paper's
	// time-vs-ST trend, so the bounded walk is the default.
	Patience int `json:"patience"`
	// DisableLowerBounds turns off the LB_Kim/LB_Keogh cascade (for
	// ablation benchmarks); DTW early abandoning remains.
	DisableLowerBounds bool `json:"disableLowerBounds"`
	// Parallelism bounds the worker fan-out of a single query and of
	// BestMatchBatch. ≤ 0 selects runtime.GOMAXPROCS(0); 1 forces the
	// sequential path; values above NumCPU are accepted and merely
	// oversubscribe. Answers are identical for every setting — see the
	// package documentation.
	Parallelism int `json:"parallelism"`
}

// DefaultPatience is the non-improving-member budget of the in-group pivot
// walk when Options.Patience is 0.
const DefaultPatience = 32

// Processor holds the query primitives over one immutable base: a shard's
// restricted index behind a LocalShard, or the global grouping a Scatter
// coordinator reads.
//
// Concurrency and workspace ownership: a Processor is safe for any number
// of concurrent calls. Race freedom is by construction — the base is
// immutable, and every dist.Workspace used by a call is drawn from an
// internal sync.Pool with single-goroutine ownership (each query goroutine,
// and each worker a parallel query fans out to, gets its own workspace and
// returns it before the call completes; workspaces never escape a call and
// are never shared between two live goroutines).
type Processor struct {
	base *rspace.Base
	opts Options
	// workers is the resolved Options.Parallelism (always ≥ 1).
	workers int
	// pool recycles DTW scratch across queries and across the workers of
	// one query. See the ownership rule above and on dist.Workspace.
	pool *parallel.WorkspacePool
	// counters is the lifetime work tally, shared (by pointer) with every
	// view derived from this processor (batch executors keep accounting
	// against the same instance).
	counters *Counters
}

// New builds a processor over a base.
func New(b *rspace.Base, opts Options) (*Processor, error) {
	if b == nil {
		return nil, errors.New("query: nil base")
	}
	if opts.CandidateLimit < 0 {
		return nil, fmt.Errorf("query: negative candidate limit %d", opts.CandidateLimit)
	}
	return &Processor{
		base:     b,
		opts:     opts,
		workers:  parallel.Resolve(opts.Parallelism),
		pool:     &parallel.WorkspacePool{},
		counters: &Counters{},
	}, nil
}

// Match is a similarity-query answer: the best-matching subsequence found.
type Match struct {
	// SeriesID, Start, Length locate the matched subsequence (Xp)^i_j.
	SeriesID, Start, Length int
	// Dist is the normalized DTW (Def. 6) between query and match — the
	// value the paper's accuracy metric compares.
	Dist float64
	// RawDTW is the unnormalized Def. 3 distance.
	RawDTW float64
	// GroupID identifies the ONEX group the match came from.
	GroupID int
}

// Found reports whether the match is populated (a search over an empty
// length set yields a zero Match with Found()==false).
func (m Match) Found() bool { return m.Length > 0 }

// Trace counts the work a query performed, for the ablation benchmarks.
// The JSON tags are the shard-transport wire shape (per-call work folds
// back into the coordinator's trace).
type Trace struct {
	RepsExamined   int `json:"repsExamined"`   // representatives considered
	PrunedByKim    int `json:"prunedByKim"`    // skipped after LB_Kim
	PrunedByKeogh  int `json:"prunedByKeogh"`  // skipped after LB_Keogh
	DTWComputed    int `json:"dtwComputed"`    // full or early-abandoned DTW evaluations
	MembersTested  int `json:"membersTested"`  // group members verified with DTW
	LengthsVisited int `json:"lengthsVisited"` // lengths visited in Match=Any mode
}

func validateQuery(q []float64) error {
	if len(q) == 0 {
		return errors.New("query: empty query sequence")
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("query: non-finite value %v at index %d", v, i)
		}
	}
	return nil
}

// lengthOrder yields indexed lengths in the paper's search order: the
// query's own length first (if indexed), then strictly smaller lengths in
// decreasing order, then larger lengths in increasing order.
func (p *Processor) lengthOrder(queryLen int) []int {
	ls := p.base.Lengths // ascending
	out := make([]int, 0, len(ls))
	if p.base.Entry(queryLen) != nil {
		out = append(out, queryLen)
	}
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i] < queryLen {
			out = append(out, ls[i])
		}
	}
	for _, l := range ls {
		if l > queryLen {
			out = append(out, l)
		}
	}
	return out
}

// Parallel-path thresholds. scanParallelMin is the fewest representatives
// worth fanning a scan out for; mineBatchSize is the round size of the
// parallel member evaluation (group mining and k-NN verification). mineBatchSize is a fixed constant — never
// derived from the worker count — because the round boundaries define which
// best-so-far snapshot each DTW cutoff uses, and those snapshots are part
// of the (worker-count-invariant) decision replay.
const (
	scanParallelMin = 16
	mineBatchSize   = 32
)

// evalRound concurrently evaluates one round of candidates against a bound
// snapshot: lbBits[i] receives LB_Kim (0 when lower bounds are disabled)
// and dsBits[i] the early-abandoning DTW (+Inf when the lower bound already
// proves the candidate cannot beat the bound — the caller's replay never
// reads the distance in that case), both as math.Float64bits. Items stride
// across up to workers goroutines, each owning one pooled workspace for the
// whole round. The return value is how many DTWs actually ran (Trace
// accounting).
func (p *Processor) evalRound(workers int, q []float64, n int, bound float64,
	valueAt func(int) []float64, lbBits, dsBits []uint64) int {

	if workers > n {
		workers = n
	}
	var dtws atomic.Int64
	parallel.ForEach(workers, workers, func(w int) {
		lws := p.pool.Get()
		defer p.pool.Put(lws)
		ran := 0
		for i := w; i < n; i += workers {
			v := valueAt(i)
			lb, d := 0.0, math.Inf(1)
			if !p.opts.DisableLowerBounds {
				lb = dist.LBKim(q, v)
			}
			if lb < bound {
				d = lws.DTWEarlyAbandon(q, v, dist.Unconstrained, bound)
				ran++
			}
			lbBits[i], dsBits[i] = math.Float64bits(lb), math.Float64bits(d)
		}
		dtws.Add(int64(ran))
	})
	return int(dtws.Load())
}

// pivotWalk yields LSI member indices in the Sec. 5.3 pivot order: starting
// from the member whose ED-to-rep is closest to pivot (the rep's DTW to the
// query), expanding alternately toward smaller and larger EDs. Next returns
// -1 once the group is exhausted.
type pivotWalk struct {
	members []grouping.Member
	pivot   float64
	left    int
	right   int
}

func newPivotWalk(members []grouping.Member, pivot float64) *pivotWalk {
	// First member with EDToRep ≥ pivot (binary search, LSI is sorted).
	lo, hi := 0, len(members)
	for lo < hi {
		mid := (lo + hi) / 2
		if members[mid].EDToRep < pivot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return &pivotWalk{members: members, pivot: pivot, left: lo - 1, right: lo}
}

func (w *pivotWalk) next() int {
	var idx int
	switch {
	case w.left < 0 && w.right >= len(w.members):
		return -1
	case w.left < 0:
		idx, w.right = w.right, w.right+1
	case w.right >= len(w.members):
		idx, w.left = w.left, w.left-1
	case w.pivot-w.members[w.left].EDToRep <= w.members[w.right].EDToRep-w.pivot:
		idx, w.left = w.left, w.left-1
	default:
		idx, w.right = w.right, w.right+1
	}
	return idx
}
