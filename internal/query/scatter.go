package query

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/obs"
	"onex/internal/rspace"
)

// Scatter is the ONEX query engine: Algorithm 2 run by a coordinator over
// one or more shard transports. The dataset's series are hash-partitioned
// across shards, each shard holds the restriction of ONE deterministic
// global grouping to its series (same representatives, same member ED
// order) with its own GTI/LSI index layers, and Scatter runs the decision
// procedure across them. A single in-process LocalShard holding every
// series is the unsharded engine — there is no second query path.
//
// Every shard interaction crosses the ShardTransport seam, so the same
// coordinator drives in-process shards (LocalShard) and remote worker
// processes (internal/shardrpc.Client) interchangeably. The split of work:
//
//   - the representative scan of a length fans one ScanBest/ScanFixed call
//     per shard (each global group is scanned by exactly one shard — the
//     one holding its nearest member) and merges the per-shard results with
//     one tie rule (smallest distance, then smallest global group id);
//   - group mining and k-NN member verification replay the global pivot
//     walk / heap bookkeeping at the coordinator. Parallel queries over
//     large groups (≥ 2·mineBatchSize members) ship each fixed-size round's
//     DTW work to the members' home shards (EvalMembers) with the current
//     best-so-far bound threaded in the request — the bound hint that keeps
//     early abandoning effective across the wire. Sequential queries and
//     small groups are verified member by member at the coordinator, which
//     holds the global dataset, against the running cutoff: a round there
//     would cost more coordination than the DTWs it saves, and the running
//     cutoff abandons earlier than a round snapshot;
//   - range search runs verbatim on every shard — its admission (Lemma 2
//     premise per member) and per-member verification decisions depend only
//     on the shared global representatives, so the union of shard result
//     sets is the answer — and concatenates in shard order;
//   - seasonal queries read the global grouping directly (the coordinator
//     holds it in full).
//
// Answers are therefore identical at every shard count, worker count and
// transport, down to tie-breaking: bit-equal representative distances
// resolve to the smaller global group id everywhere, and everything
// downstream of the scan — pivot walks, patience cuts, heap states, range
// admissions — replays decision for decision.
type Scatter struct {
	// global holds the global dataset and per-length global group vectors
	// but no scan index (no Dc, envelopes or median order — the per-shard
	// indexes hold those); it answers mining and seasonal bookkeeping and
	// owns the engine's counters and workspace pool.
	global     *Processor
	transports []ShardTransport
	// infos caches each transport's layout slice (validated at assembly).
	infos []ShardInfo
	// route maps global series id → transports index (the member's home).
	route []int
}

// NewScatter assembles the executor over the shard transports. global must
// hold the full dataset and, per indexed length, the complete global group
// vector (Groups[k].ID == k); the transports must partition the series and
// cover every global group's scan exactly once (Info().Owned).
func NewScatter(global *rspace.Base, opts Options, transports []ShardTransport) (*Scatter, error) {
	gp, err := New(global, opts)
	if err != nil {
		return nil, err
	}
	n := global.Dataset.N()
	s := &Scatter{
		global:     gp,
		transports: transports,
		infos:      make([]ShardInfo, len(transports)),
		route:      make([]int, n),
	}
	for i := range s.route {
		s.route[i] = -1
	}
	routed := 0
	for i, t := range transports {
		s.infos[i] = t.Info()
		for _, sid := range s.infos[i].Series {
			if sid < 0 || sid >= n {
				return nil, fmt.Errorf("query: shard %d holds series %d outside [0,%d)", s.infos[i].Shard, sid, n)
			}
			if prev := s.route[sid]; prev >= 0 {
				return nil, fmt.Errorf("query: series %d held by shards %d and %d",
					sid, s.infos[prev].Shard, s.infos[i].Shard)
			}
			s.route[sid] = i
			routed++
		}
	}
	if routed != n {
		return nil, fmt.Errorf("query: shards hold %d of %d series", routed, n)
	}
	for _, l := range global.Lengths {
		e := global.Entry(l)
		if e == nil {
			return nil, fmt.Errorf("query: scatter length %d has no global entry", l)
		}
		counts := make([]int, len(e.Groups))
		for i := range transports {
			for _, gid := range s.infos[i].Owned[l] {
				if gid < 0 || gid >= len(counts) {
					return nil, fmt.Errorf("query: length %d: owned group %d outside %d global groups",
						l, gid, len(counts))
				}
				counts[gid]++
			}
		}
		for k, c := range counts {
			if c != 1 {
				return nil, fmt.Errorf("query: length %d: global group %d owned %s", l,
					k, map[bool]string{true: "more than once", false: "by no shard"}[c > 1])
			}
		}
	}
	return s, nil
}

// withWorkers returns a view of s whose executor fan-out is bounded to w
// (BestMatchBatch parallelizes across queries instead of within them).
func (s *Scatter) withWorkers(w int) *Scatter {
	if s.global.workers == w {
		return s
	}
	gp := *s.global
	gp.workers = w
	cp := *s
	cp.global = &gp
	return &cp
}

// fanShards runs one call per transport — concurrently past one shard,
// inline for a single shard — and gathers the responses in transport order.
// With a non-nil rec every shard call is recorded as its own span (obs.Trace
// is safe for concurrent span starts), annotated by the caller; the spans
// are what makes `explain` show where a distributed query spent its time.
// The first shard error aborts the query (transport errors are already
// retried below this seam; see internal/shardrpc).
func fanShards[R any](ctx context.Context, s *Scatter, rec *obs.Trace, span string,
	call func(context.Context, ShardTransport) (R, error),
	annotate func(sc obs.SpanScope, r R) obs.SpanScope) ([]R, error) {

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]R, len(s.transports))
	errs := make([]error, len(s.transports))
	one := func(i int) {
		var sc obs.SpanScope
		if rec != nil {
			sc = rec.StartSpan(span)
		}
		r, err := call(ctx, s.transports[i])
		out[i], errs[i] = r, err
		if rec != nil {
			annotate(sc.Attr("shard", int64(s.infos[i].Shard)), r).End()
		}
	}
	if len(s.transports) == 1 {
		one(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(len(s.transports))
		for i := range s.transports {
			go func(i int) { defer wg.Done(); one(i) }(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BestMatch answers query class I (Q1): the subsequence most similar to q
// under DTW. With MatchExact only subsequences of len(q) are considered and
// an error is returned if that length is not indexed; with MatchAny every
// indexed length is searched in the Sec. 5.3 order. A canceled ctx stops
// the search between lengths and rounds and returns ctx's error.
func (s *Scatter) BestMatch(ctx context.Context, q []float64, mode MatchMode) (Match, error) {
	var tr Trace
	return s.bestMatch(ctx, q, mode, &tr, nil)
}

// BestMatchObserved is BestMatch with optional span recording: a non-nil
// rec receives per-shard scan spans, per-length refine spans and the
// query's work totals. rec == nil is the hot path and adds zero
// allocations (TestBestMatchObservedNilAllocs); tracing only observes, so
// answers are bit-identical either way.
func (s *Scatter) BestMatchObserved(ctx context.Context, q []float64, mode MatchMode, rec *obs.Trace) (Match, error) {
	var tr Trace
	return s.bestMatch(ctx, q, mode, &tr, rec)
}

// bestMatch answers one Q1 query, accumulating its work into the
// caller-owned tr and folding it into the counters exactly once.
func (s *Scatter) bestMatch(ctx context.Context, q []float64, mode MatchMode, tr *Trace, rec *obs.Trace) (Match, error) {
	// Remote transports discover the recorder through the context (the rec
	// parameter stops at the coordinator; rpc spans are recorded below the
	// fan-out, including EvalMembers rounds that never see rec). Untraced
	// queries skip the WithValue so the hot path stays allocation-free.
	if rec != nil {
		ctx = obs.ContextWithTrace(ctx, rec)
	}
	defer func() { s.global.counters.tick(); s.global.counters.fold(*tr); observe(rec, *tr) }()
	if err := validateQuery(q); err != nil {
		return Match{}, err
	}

	switch mode {
	case MatchExact:
		e := s.global.base.Entry(len(q))
		if e == nil {
			return Match{}, fmt.Errorf("query: length %d not indexed", len(q))
		}
		best := Match{Dist: math.Inf(1)}
		if _, err := s.searchLength(ctx, q, e, &best, tr, rec); err != nil {
			return Match{}, err
		}
		if !best.Found() {
			return Match{}, fmt.Errorf("query: no candidate found (empty length entry)")
		}
		return best, nil
	case MatchAny:
		lengths := s.global.lengthOrder(len(q))
		if len(lengths) == 0 {
			return Match{}, fmt.Errorf("query: base has no indexed lengths")
		}
		best := Match{Dist: math.Inf(1)}
		for _, l := range lengths {
			if err := ctx.Err(); err != nil {
				return Match{}, err
			}
			tr.LengthsVisited++
			repNorm, err := s.searchLength(ctx, q, s.global.base.Entry(l), &best, tr, rec)
			if err != nil {
				return Match{}, err
			}
			// Sec. 5.3 stop rule: a representative within ST/2 guarantees
			// (Lemma 2) its group's members are within ST of the query.
			if !s.global.opts.DisableEarlyStop && repNorm <= s.global.base.ST/2 {
				break
			}
		}
		if !best.Found() {
			return Match{}, fmt.Errorf("query: no candidate found")
		}
		return best, nil
	default:
		return Match{}, fmt.Errorf("query: unknown match mode %d", mode)
	}
}

// searchLength finds the best-matching representative of one length (the
// compareRep step of Algorithm 2.A) by scattering the scan across the
// shards, then mines that global group's full member list (getKSim),
// updating best in place. It returns the normalized DTW of the chosen
// representative (+Inf if the entry is empty) for the early-stop rule.
//
// The scan request pins its bound hint to +Inf: Q1 needs the exact argmin
// representative (it seeds the pivot walk and the Sec. 5.3 early-stop
// rule), so an external bound could prune the very representative the
// search is after. Each shard still early-abandons against its own
// tightening bound, and the merge applies the (distance, global id) tie
// rule every shard applies internally.
func (s *Scatter) searchLength(ctx context.Context, q []float64, e *rspace.LengthEntry,
	best *Match, tr *Trace, rec *obs.Trace) (float64, error) {

	if e == nil || len(e.Groups) == 0 {
		return math.Inf(1), nil
	}
	divisor := dist.NormalizedDTWDivisor(len(q), e.Length)
	req := ScanBestRequest{
		Length:   e.Length,
		Query:    q,
		HintBits: math.Float64bits(math.Inf(1)),
		Workers:  s.global.workers,
	}
	resps, err := fanShards(ctx, s, rec, "shard-scan",
		func(ctx context.Context, t ShardTransport) (ScanBestResponse, error) {
			return t.ScanBest(ctx, req)
		},
		func(sc obs.SpanScope, r ScanBestResponse) obs.SpanScope {
			return spanWork(sc.Attr("length", int64(e.Length)), Trace{}, r.Trace)
		})
	if err != nil {
		return 0, err
	}
	bestID, bestRaw := -1, math.Inf(1)
	for _, resp := range resps {
		tr.add(resp.Trace)
		if !resp.Found {
			continue
		}
		raw := math.Float64frombits(resp.BestBits)
		if raw < bestRaw || (raw == bestRaw && resp.GroupID < bestID) {
			bestID, bestRaw = resp.GroupID, raw
		}
	}
	if bestID < 0 {
		return math.Inf(1), nil
	}
	var sc obs.SpanScope
	var pre Trace
	if rec != nil {
		pre = *tr
		sc = rec.StartSpan("refine")
	}
	err = s.mineGroup(ctx, q, e, bestID, bestRaw/divisor, best, tr)
	if rec != nil {
		spanWork(sc.Attr("length", int64(e.Length)).Attr("group", int64(bestID)), pre, *tr).End()
	}
	if err != nil {
		return 0, err
	}
	return bestRaw / divisor, nil
}

// shipRounds reports whether a group of n members is verified in rounds
// shipped to the members' home shards. Sequential queries and small groups
// run at the coordinator instead (see Scatter).
func (s *Scatter) shipRounds(n int) bool {
	return s.global.workers > 1 && n >= 2*mineBatchSize
}

// mineGroup verifies members of global group k against the query in pivot
// order: the LSI array is sorted by ED-to-rep, and the paper starts from
// the member whose ED is closest to DTW(query, rep), expanding alternately
// to smaller and larger EDs, verified with early-abandoning DTW against the
// best so far and cut after Options.Patience consecutive non-improving
// members.
//
// When the group ships (shipRounds) the walk runs in fixed-size rounds:
// each round's members are evaluated shard-side against the best-so-far
// snapshot taken at the round boundary, then the improvement/patience
// bookkeeping is replayed sequentially in walk order. A member whose DTW was
// abandoned at the round bound is provably non-improving at its replay
// position (the running best only tightens within a round), so the replay
// reaches exactly the same decisions — same match, same patience cut — as
// the sequential walk; rounds only change how many DTWs run to completion.
func (s *Scatter) mineGroup(ctx context.Context, q []float64, e *rspace.LengthEntry,
	k int, repNormDTW float64, best *Match, tr *Trace) error {

	g := e.Groups[k]
	n := g.Count()
	if n == 0 {
		return nil
	}
	opts := s.global.opts
	divisor := dist.NormalizedDTWDivisor(len(q), e.Length)
	limit := opts.CandidateLimit
	if limit <= 0 || limit > n {
		limit = n
	}
	patience := opts.Patience
	if patience == 0 {
		patience = DefaultPatience
	}
	walk := newPivotWalk(g.Members, repNormDTW)
	bestRaw := best.Dist * divisor // +Inf-safe: Inf*x = Inf
	sinceImprove := 0
	// decide replays one member's evaluation: lb is its LB_Kim (0 when lower
	// bounds are disabled), d its DTW against a bound no looser than bestRaw.
	decide := func(m grouping.Member, lb, d float64) {
		tr.MembersTested++
		if lb >= bestRaw || d >= bestRaw {
			sinceImprove++
			return
		}
		sinceImprove = 0
		bestRaw = d
		*best = Match{
			SeriesID: m.SeriesIdx,
			Start:    m.Start,
			Length:   e.Length,
			Dist:     d / divisor,
			RawDTW:   d,
			GroupID:  k,
		}
	}

	if !s.shipRounds(n) {
		ws := s.global.pool.Get()
		defer s.global.pool.Put(ws)
		for tested := 0; tested < limit; tested++ {
			if patience > 0 && sinceImprove >= patience {
				return nil
			}
			if tested%mineBatchSize == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			idx := walk.next()
			if idx < 0 {
				return nil
			}
			m := g.Members[idx]
			v := s.global.base.MemberValues(g, m)
			// LB_Kim is O(1) and admissible for any warping path; it skips
			// the bulk of hopeless members once a good best-so-far exists.
			lb := 0.0
			if !opts.DisableLowerBounds {
				if lb = dist.LBKim(q, v); lb >= bestRaw {
					decide(m, lb, 0)
					continue
				}
			}
			tr.DTWComputed++
			decide(m, lb, ws.DTWEarlyAbandon(q, v, dist.Unconstrained, bestRaw))
		}
		return nil
	}

	r := s.newRounds()
	batch := make([]grouping.Member, 0, mineBatchSize)
	tested := 0
	for tested < limit {
		if patience > 0 && sinceImprove >= patience {
			return nil
		}
		// Collect the next round of members in walk order.
		batch = batch[:0]
		for len(batch) < mineBatchSize && tested+len(batch) < limit {
			idx := walk.next()
			if idx < 0 {
				break
			}
			batch = append(batch, g.Members[idx])
		}
		if len(batch) == 0 {
			return nil
		}
		dtws, err := r.eval(ctx, q, e.Length, batch, bestRaw)
		if err != nil {
			return err
		}
		tr.DTWComputed += dtws
		// Replay the bookkeeping sequentially in walk order.
		for i, m := range batch {
			if patience > 0 && sinceImprove >= patience {
				return nil
			}
			tested++
			decide(m, r.lbs[i], r.ds[i])
		}
	}
	return nil
}

// memberRounds ships member-evaluation rounds to the members' home shards.
// One instance serves a whole query: the per-shard request lists and the
// result buffers are reused round after round.
type memberRounds struct {
	s *Scatter
	// items/pos hold, per transport, this round's members and their
	// positions in the round.
	items [][]MemberRef
	pos   [][]int
	resps []EvalMembersResponse
	errs  []error
	// lbs/ds receive the round results positionally.
	lbs, ds []float64
}

func (s *Scatter) newRounds() *memberRounds {
	return &memberRounds{
		s:     s,
		items: make([][]MemberRef, len(s.transports)),
		pos:   make([][]int, len(s.transports)),
		resps: make([]EvalMembersResponse, len(s.transports)),
		errs:  make([]error, len(s.transports)),
		lbs:   make([]float64, mineBatchSize),
		ds:    make([]float64, mineBatchSize),
	}
}

// eval evaluates one round against the bound snapshot: the round's members
// partition by home shard, each shard evaluates its slice (LB_Kim plus
// early-abandoning DTW depend only on (query, member, bound), so the
// partition cannot change a single bit), and the results land positionally
// in r.lbs/r.ds. Returns how many DTWs actually ran shard-side.
func (r *memberRounds) eval(ctx context.Context, q []float64, length int,
	batch []grouping.Member, bound float64) (int, error) {

	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s := r.s
	for ti := range r.items {
		r.items[ti] = r.items[ti][:0]
		r.pos[ti] = r.pos[ti][:0]
	}
	calls := 0
	for i, m := range batch {
		ti := s.route[m.SeriesIdx]
		if len(r.items[ti]) == 0 {
			calls++
		}
		r.items[ti] = append(r.items[ti], MemberRef{Series: m.SeriesIdx, Start: m.Start})
		r.pos[ti] = append(r.pos[ti], i)
	}
	req := EvalMembersRequest{
		Length:    length,
		Query:     q,
		BoundBits: math.Float64bits(bound),
		Workers:   s.global.workers,
	}
	var wg sync.WaitGroup
	for ti, items := range r.items {
		if len(items) == 0 {
			continue
		}
		req.Items = items
		if calls == 1 {
			r.errs[ti] = s.transports[ti].EvalMembers(ctx, req, &r.resps[ti])
			break
		}
		wg.Add(1)
		go func(ti int, req EvalMembersRequest) {
			defer wg.Done()
			r.errs[ti] = s.transports[ti].EvalMembers(ctx, req, &r.resps[ti])
		}(ti, req)
	}
	wg.Wait()
	dtws := 0
	for ti, items := range r.items {
		if len(items) == 0 {
			continue
		}
		resp := &r.resps[ti]
		if r.errs[ti] != nil {
			return 0, r.errs[ti]
		}
		if len(resp.LbBits) != len(items) || len(resp.DsBits) != len(items) {
			return 0, fmt.Errorf("query: shard %d answered %d/%d of %d member evals",
				s.infos[ti].Shard, len(resp.LbBits), len(resp.DsBits), len(items))
		}
		for j, p := range r.pos[ti] {
			r.lbs[p] = math.Float64frombits(resp.LbBits[j])
			r.ds[p] = math.Float64frombits(resp.DsBits[j])
		}
		dtws += resp.DTWComputed
	}
	return dtws, nil
}

// BestKMatches answers the k-nearest-neighbour extension of query class I:
// the k subsequences most similar to q under normalized DTW, ordered best
// first. The paper's processor returns the single best match (k=1); k-NN is
// the natural generalization its range/NN-search related work discusses
// (Sec. 7) and falls out of the same group exploration: representatives are
// scanned per length and the k-th best distance replaces the best-so-far as
// the pruning/early-abandon cutoff. Results can span multiple groups.
func (s *Scatter) BestKMatches(ctx context.Context, q []float64, mode MatchMode, k int) ([]Match, error) {
	return s.BestKMatchesObserved(ctx, q, mode, k, nil)
}

// BestKMatchesObserved is BestKMatches with optional span recording. The
// scan cutoff is fixed per length (and travels in the request as the bound
// hint), so the candidate set is identical at every worker count and shard
// layout.
func (s *Scatter) BestKMatchesObserved(ctx context.Context, q []float64, mode MatchMode, k int, rec *obs.Trace) ([]Match, error) {
	if rec != nil {
		ctx = obs.ContextWithTrace(ctx, rec)
	}
	var tr Trace
	defer func() { s.global.counters.tick(); s.global.counters.fold(tr); observe(rec, tr) }()
	if k < 1 {
		return nil, fmt.Errorf("query: k must be ≥ 1, got %d", k)
	}
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	heap := newTopK(k)

	var lengths []int
	switch mode {
	case MatchExact:
		if s.global.base.Entry(len(q)) == nil {
			return nil, fmt.Errorf("query: length %d not indexed", len(q))
		}
		lengths = []int{len(q)}
	case MatchAny:
		lengths = s.global.lengthOrder(len(q))
		if len(lengths) == 0 {
			return nil, fmt.Errorf("query: base has no indexed lengths")
		}
	default:
		return nil, fmt.Errorf("query: unknown match mode %d", mode)
	}

	var r *memberRounds // allocated on the first shipped group
	for _, l := range lengths {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if mode == MatchAny {
			tr.LengthsVisited++
		}
		if err := s.searchLengthK(ctx, q, s.global.base.Entry(l), heap, &r, &tr, rec); err != nil {
			return nil, err
		}
	}
	out := heap.sorted()
	if len(out) == 0 {
		return nil, fmt.Errorf("query: no candidates found")
	}
	return out, nil
}

// searchLengthK mines every group of one length whose representative's
// lower bounds beat the current k-th distance. Unlike the 1-NN path it
// cannot stop at the single best representative: a group whose rep is
// slightly farther can still hold top-k members, so groups are visited in
// increasing rep-DTW order until the rep's own DTW exceeds the k-th
// distance plus the group radius (in raw units) — a heuristic cut mirroring
// the paper's ST/2-based guarantee. No heap pushes happen during the rep
// scan, so its cutoff is fixed for the whole length and fanning it across
// the shards (and their workers) changes neither answers nor counters.
func (s *Scatter) searchLengthK(ctx context.Context, q []float64, e *rspace.LengthEntry,
	heap *topK, r **memberRounds, tr *Trace, rec *obs.Trace) error {

	if e == nil || len(e.Groups) == 0 {
		return nil
	}
	divisor := dist.NormalizedDTWDivisor(len(q), e.Length)
	radiusRaw := s.global.base.ST / 2 * math.Sqrt(float64(e.Length)) // group radius in raw-ED units

	req := ScanFixedRequest{
		Length:     e.Length,
		Query:      q,
		CutoffBits: math.Float64bits(heap.kth()*divisor + radiusRaw),
		Workers:    s.global.workers,
	}
	resps, err := fanShards(ctx, s, rec, "shard-scan",
		func(ctx context.Context, t ShardTransport) (ScanFixedResponse, error) {
			return t.ScanFixed(ctx, req)
		},
		func(sc obs.SpanScope, r ScanFixedResponse) obs.SpanScope {
			return spanWork(sc.Attr("length", int64(e.Length)), Trace{}, r.Trace)
		})
	if err != nil {
		return err
	}
	type repDist struct {
		global int
		d      float64
	}
	var reps []repDist
	for _, resp := range resps {
		tr.add(resp.Trace)
		for _, h := range resp.Hits {
			reps = append(reps, repDist{global: h.GroupID, d: h.Dist})
		}
	}
	// Tie order: ascending global id (each shard's hits already are; the
	// shards partition the ids), then stable by distance.
	if len(resps) > 1 {
		sort.Slice(reps, func(a, b int) bool { return reps[a].global < reps[b].global })
	}
	sort.SliceStable(reps, func(a, b int) bool { return reps[a].d < reps[b].d })

	var sc obs.SpanScope
	var pre Trace
	if rec != nil {
		pre = *tr
		sc = rec.StartSpan("refine")
	}
	groups := 0
	var verr error
	for _, rd := range reps {
		// Re-check against the (possibly tightened) k-th distance.
		if rd.d > heap.kth()*divisor+radiusRaw {
			break
		}
		groups++
		if verr = s.verifyGroupK(ctx, q, e.Groups[rd.global], rd.global, e.Length, divisor, heap, r, tr); verr != nil {
			break
		}
	}
	if rec != nil {
		spanWork(sc.Attr("length", int64(e.Length)).Attr("groups", int64(groups)), pre, *tr).End()
	}
	return verr
}

// verifyGroupK verifies every member of one group against the running top-k
// heap: lower-bound prune against the evolving k-th distance, then
// early-abandoning DTW, pushing exact distances that beat the cutoff. gid
// is the global group id recorded on pushed matches. When the group ships
// (shipRounds), fixed-size rounds are evaluated shard-side against the k-th
// distance at the round boundary and the pushes replay in member order:
// a distance abandoned at the round cutoff is ≥ the (only-tightening)
// running k-th and could never enter the heap, so the heap passes through
// exactly the sequential states. Like mineGroup, the split between Kim
// prunes and DTWs depends on the path while MembersTested does not.
func (s *Scatter) verifyGroupK(ctx context.Context, q []float64, g *grouping.Group,
	gid, length int, divisor float64, heap *topK, r **memberRounds, tr *Trace) error {

	noLB := s.global.opts.DisableLowerBounds
	push := func(m grouping.Member, d float64) {
		heap.push(Match{
			SeriesID: m.SeriesIdx,
			Start:    m.Start,
			Length:   length,
			Dist:     d / divisor,
			RawDTW:   d,
			GroupID:  gid,
		})
	}
	if !s.shipRounds(g.Count()) {
		ws := s.global.pool.Get()
		defer s.global.pool.Put(ws)
		for i, m := range g.Members {
			if i%mineBatchSize == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			v := s.global.base.MemberValues(g, m)
			cutoff := heap.kth() * divisor
			tr.MembersTested++
			if !noLB && dist.LBKim(q, v) >= cutoff {
				tr.PrunedByKim++
				continue
			}
			tr.DTWComputed++
			if d := ws.DTWEarlyAbandon(q, v, dist.Unconstrained, cutoff); !math.IsInf(d, 1) {
				push(m, d)
			}
		}
		return nil
	}
	if *r == nil {
		*r = s.newRounds()
	}
	rr := *r
	for off := 0; off < g.Count(); off += mineBatchSize {
		end := off + mineBatchSize
		if end > g.Count() {
			end = g.Count()
		}
		batch := g.Members[off:end]
		roundCutoff := heap.kth() * divisor
		dtws, err := rr.eval(ctx, q, length, batch, roundCutoff)
		if err != nil {
			return err
		}
		tr.DTWComputed += dtws
		for i, m := range batch {
			cutoff := heap.kth() * divisor
			tr.MembersTested++
			if !noLB && rr.lbs[i] >= cutoff {
				tr.PrunedByKim++
				continue
			}
			if d := rr.ds[i]; !math.IsInf(d, 1) && d < roundCutoff && d < cutoff {
				push(m, d)
			}
		}
	}
	return nil
}

// RangeSearch answers a range query: every subsequence of the given length
// whose normalized DTW to q is within radius (see Processor.rangeSearch for
// the Lemma 2 admission and the pruning argument). Each shard answers it
// over its restriction and the per-shard result slices concatenate in
// shard order, remapped to global series/group ids. The result set is
// identical at every layout (admission and verification decide per member
// against the shared global representative); only the slice order differs,
// and results are unordered. Wholesale-admitted members report the ST
// upper bound in Dist (see RangeResult.Guaranteed).
func (s *Scatter) RangeSearch(ctx context.Context, q []float64, length int, radius float64) ([]RangeResult, error) {
	return s.RangeSearchObserved(ctx, q, length, radius, false, nil)
}

// RangeSearchExact is RangeSearch with exact reported distances: members
// admitted through the Lemma 2 guarantee get their true DTW computed and
// are filtered against the radius like every other member, so the result
// set is exactly the subsequences within radius, independent of how the
// base happens to be grouped.
func (s *Scatter) RangeSearchExact(ctx context.Context, q []float64, length int, radius float64) ([]RangeResult, error) {
	return s.RangeSearchObserved(ctx, q, length, radius, true, nil)
}

// RangeSearchObserved is the scattered range search with work accounting:
// the per-shard traces fold into one query trace and into the GLOBAL
// counters exactly once (the shard indexes' own counters are not touched —
// the scatter executor owns the tally). With a non-nil rec each shard call
// gets a "shard-range" span. Shards run concurrently; remote shards spend
// their worker budgets on separate hosts.
func (s *Scatter) RangeSearchObserved(ctx context.Context, q []float64, length int, radius float64,
	exact bool, rec *obs.Trace) ([]RangeResult, error) {

	if rec != nil {
		ctx = obs.ContextWithTrace(ctx, rec)
	}
	var tr Trace
	defer func() { s.global.counters.tick(); s.global.counters.fold(tr); observe(rec, tr) }()
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	if radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, fmt.Errorf("query: invalid range radius %v", radius)
	}
	if s.global.base.Entry(length) == nil {
		return nil, fmt.Errorf("query: length %d not indexed", length)
	}
	req := RangeRequest{
		Length:  length,
		Query:   q,
		Radius:  radius,
		Exact:   exact,
		Workers: s.global.workers,
	}
	resps, err := fanShards(ctx, s, rec, "shard-range",
		func(ctx context.Context, t ShardTransport) (RangeResponse, error) {
			return t.Range(ctx, req)
		},
		func(sc obs.SpanScope, r RangeResponse) obs.SpanScope {
			return spanWork(sc.Attr("results", int64(len(r.Results))), Trace{}, r.Trace)
		})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, resp := range resps {
		total += len(resp.Results)
	}
	out := make([]RangeResult, 0, total)
	for _, resp := range resps {
		tr.add(resp.Trace)
		for _, h := range resp.Results {
			out = append(out, RangeResult{
				Match: Match{
					SeriesID: h.Series,
					Start:    h.Start,
					Length:   length,
					Dist:     h.Dist,
					RawDTW:   h.RawDTW,
					GroupID:  h.GroupID,
				},
				Guaranteed: h.Guaranteed,
			})
		}
	}
	return out, nil
}

// SeasonalSample answers the user-driven class II query from the global
// grouping (global group ids).
func (s *Scatter) SeasonalSample(seriesID, length int) ([]SeasonalGroup, error) {
	return s.global.SeasonalSample(seriesID, length)
}

// SeasonalSampleObserved is SeasonalSample with span recording.
func (s *Scatter) SeasonalSampleObserved(seriesID, length int, rec *obs.Trace) ([]SeasonalGroup, error) {
	return s.global.SeasonalSampleObserved(seriesID, length, rec)
}

// SeasonalAll answers the data-driven class II query from the global
// grouping.
func (s *Scatter) SeasonalAll(length int) ([]SeasonalGroup, error) {
	return s.global.SeasonalAll(length)
}

// SeasonalAllObserved is SeasonalAll with span recording.
func (s *Scatter) SeasonalAllObserved(length int, rec *obs.Trace) ([]SeasonalGroup, error) {
	return s.global.SeasonalAllObserved(length, rec)
}
