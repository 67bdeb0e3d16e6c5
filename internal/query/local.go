package query

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/parallel"
	"onex/internal/rspace"
	"onex/internal/ts"
)

// LocalShard is the in-process ShardTransport: one shard's restricted
// index (a Processor over the restricted base) plus the local↔global
// translation tables. The sharded engine (internal/shard) wraps each of
// its parts in one; a worker process builds one from a shipped ShardSpec.
// Both construction paths run the same index derivation on the same
// inputs, so every transport response is bit-identical across them — the
// property the remote-equivalence suite enforces.
type LocalShard struct {
	proc  *Processor
	shard int
	// series maps local series index → global series id (ascending).
	series []int
	// localSeries inverts series: global series id → local index.
	localSeries map[int]int
	// globalIDs maps, per length, local group index → global group id.
	globalIDs map[int][]int
	// units lists, per length, the owned scan units sorted by global group
	// id (refreshed parts hold local orders that aren't sorted); medianUnits
	// holds the same units in the shard's Sec. 5.3 median-sum order (the
	// entry's MedianOrder restricted to owned groups), ScanBest's visit
	// order.
	units, medianUnits map[int][]localUnit
}

// localUnit is one owned representative to scan.
type localUnit struct {
	local, global int
}

// NewLocalShard wraps an existing shard processor as a transport. series,
// globalIDs and owned are the part's translation tables: series maps local
// series index → global id; per length, globalIDs maps local group index →
// global group id and owned marks the local groups whose representative
// this shard scans.
func NewLocalShard(proc *Processor, shard int, series []int,
	globalIDs map[int][]int, owned map[int][]bool) (*LocalShard, error) {

	if proc == nil {
		return nil, fmt.Errorf("query: nil shard processor")
	}
	if n := proc.base.Dataset.N(); n != len(series) {
		return nil, fmt.Errorf("query: shard %d holds %d series but maps %d", shard, n, len(series))
	}
	ls := &LocalShard{
		proc:        proc,
		shard:       shard,
		series:      series,
		localSeries: make(map[int]int, len(series)),
		globalIDs:   globalIDs,
		units:       make(map[int][]localUnit, len(proc.base.Lengths)),
		medianUnits: make(map[int][]localUnit, len(proc.base.Lengths)),
	}
	for li, gid := range series {
		ls.localSeries[gid] = li
	}
	for _, l := range proc.base.Lengths {
		e := proc.base.Entry(l)
		gids, own := globalIDs[l], owned[l]
		if len(gids) != len(e.Groups) || len(own) != len(e.Groups) {
			return nil, fmt.Errorf("query: shard tables for length %d cover %d/%d of %d groups",
				l, len(own), len(gids), len(e.Groups))
		}
		median := make([]localUnit, 0, len(e.Groups))
		for _, local := range e.MedianOrder {
			if own[local] {
				median = append(median, localUnit{local: local, global: gids[local]})
			}
		}
		units := append([]localUnit(nil), median...)
		sort.Slice(units, func(a, b int) bool { return units[a].global < units[b].global })
		ls.units[l] = units
		ls.medianUnits[l] = median
	}
	return ls, nil
}

// BuildLocalShard derives a shard's index from its shipped spec: the
// sub-dataset, the restricted grouping (local ids assigned in spec order)
// and the full GTI/LSI layers — the exact constructors the coordinator
// runs for an in-process shard, on bit-identical inputs, so the resulting
// transport answers bit-identically to a local one.
func BuildLocalShard(spec ShardSpec) (*LocalShard, error) {
	if len(spec.Series) == 0 {
		return nil, fmt.Errorf("query: shard spec has no series")
	}
	data := &ts.Dataset{Name: fmt.Sprintf("%s#%d", spec.Dataset, spec.Shard)}
	series := make([]int, 0, len(spec.Series))
	localOf := make(map[int]int, len(spec.Series))
	for _, s := range spec.Series {
		localOf[s.ID] = len(series)
		series = append(series, s.ID)
		data.Append(s.Label, s.Values)
	}

	res := &grouping.Result{
		ST:       spec.ST,
		Lengths:  make([]int, 0, len(spec.Lengths)),
		ByLength: make(map[int]*grouping.LengthGroups, len(spec.Lengths)),
	}
	globalIDs := make(map[int][]int, len(spec.Lengths))
	owned := make(map[int][]bool, len(spec.Lengths))
	for _, sl := range spec.Lengths {
		res.Lengths = append(res.Lengths, sl.Length)
		lg := &grouping.LengthGroups{Length: sl.Length}
		gids := make([]int, 0, len(sl.Groups))
		own := make([]bool, 0, len(sl.Groups))
		for _, sg := range sl.Groups {
			members := make([]grouping.Member, 0, len(sg.Members))
			for _, m := range sg.Members {
				li, ok := localOf[m.Series]
				if !ok {
					return nil, fmt.Errorf("query: shard spec member references series %d not shipped", m.Series)
				}
				members = append(members, grouping.Member{
					SeriesIdx: li,
					Start:     m.Start,
					EDToRep:   m.EDToRep,
				})
			}
			if len(members) == 0 {
				return nil, fmt.Errorf("query: shard spec group %d of length %d has no members", sg.GlobalID, sl.Length)
			}
			lg.Groups = append(lg.Groups, &grouping.Group{
				Length:  sl.Length,
				ID:      len(lg.Groups),
				Rep:     sg.Rep,
				Members: members,
			})
			gids = append(gids, sg.GlobalID)
			own = append(own, sg.Owned)
			res.TotalSubseq += int64(len(members))
		}
		res.ByLength[sl.Length] = lg
		globalIDs[sl.Length] = gids
		owned[sl.Length] = own
	}

	base, err := rspace.New(data, res, rspace.Options{TopK: spec.DcTopK})
	if err != nil {
		return nil, err
	}
	proc, err := New(base, spec.Opts)
	if err != nil {
		return nil, err
	}
	return NewLocalShard(proc, spec.Shard, series, globalIDs, owned)
}

// Info implements ShardTransport.
func (ls *LocalShard) Info() ShardInfo {
	info := ShardInfo{
		Shard:  ls.shard,
		Series: append([]int(nil), ls.series...),
		Owned:  make(map[int][]int, len(ls.units)),
	}
	for l, units := range ls.units {
		gids := make([]int, len(units))
		for i, u := range units {
			gids[i] = u.global
		}
		info.Owned[l] = gids
	}
	return info
}

// Stats implements ShardTransport.
func (ls *LocalShard) Stats() ShardStats {
	return ShardStats{
		Series:       len(ls.series),
		Groups:       ls.proc.base.TotalGroups(),
		Subsequences: ls.proc.base.TotalSubseq,
		IndexBytes:   ls.proc.base.SizeBytes(),
	}
}

// Close implements ShardTransport (no resources to release in-process).
func (ls *LocalShard) Close() error { return nil }

// reqWorkers resolves a request's worker budget (≥ 1).
func reqWorkers(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// ScanBest implements ShardTransport: the tightening-bound argmin scan
// over the shard's owned units of one length, walked in the Sec. 5.3
// median-sum order so a good bound is found early. Pruning is strict
// (> cutoff) and early-abandoning DTW abandons only strictly above its
// cutoff, so every representative achieving the minimum is computed
// exactly and ties resolve to the smaller global group id — a rule that
// depends on neither the walk order, the worker count nor the shard
// layout.
func (ls *LocalShard) ScanBest(ctx context.Context, req ScanBestRequest) (ScanBestResponse, error) {
	if err := ctx.Err(); err != nil {
		return ScanBestResponse{}, err
	}
	if err := validateQuery(req.Query); err != nil {
		return ScanBestResponse{}, err
	}
	e := ls.proc.base.Entry(req.Length)
	if e == nil {
		return ScanBestResponse{}, fmt.Errorf("query: length %d not indexed", req.Length)
	}
	units := ls.medianUnits[req.Length]
	var tr Trace
	n := len(units)
	if n == 0 {
		return ScanBestResponse{BestBits: math.Float64bits(math.Inf(1))}, nil
	}
	q := req.Query
	hint := math.Float64frombits(req.HintBits)
	sameLen := req.Length == len(q)
	var order []int // LB_Keogh's query order, needed for same-length scans only
	if sameLen && !ls.proc.opts.DisableLowerBounds {
		order = dist.QueryOrder(q)
	}

	type hit struct {
		raw    float64
		global int // -1 = none
	}
	better := func(a, b hit) bool {
		return a.global >= 0 && (b.global < 0 || a.raw < b.raw || (a.raw == b.raw && a.global < b.global))
	}
	scan := func(lws *dist.Workspace, start, stride int, shared *parallel.MinBound, local *hit, ltr *Trace) {
		for pos := start; pos < n; pos += stride {
			u := units[pos]
			ltr.RepsExamined++
			cutoff := local.raw
			if hint < cutoff {
				cutoff = hint
			}
			if shared != nil {
				if sb := shared.Load(); sb < cutoff {
					cutoff = sb
				}
			}
			rep := e.Groups[u.local].Rep
			if !ls.proc.opts.DisableLowerBounds {
				if dist.LBKim(q, rep) > cutoff {
					ltr.PrunedByKim++
					continue
				}
				if sameLen {
					env := e.Envelopes[u.local]
					if lb := dist.LBKeoghOrdered(q, env.Upper, env.Lower, order, cutoff); lb > cutoff {
						ltr.PrunedByKeogh++
						continue
					}
				}
			}
			ltr.DTWComputed++
			d := lws.DTWEarlyAbandon(q, rep, dist.Unconstrained, cutoff)
			if h := (hit{raw: d, global: u.global}); !math.IsInf(d, 1) && better(h, *local) {
				*local = h
				if shared != nil {
					shared.Relax(d)
				}
			}
		}
	}

	workers := reqWorkers(req.Workers)
	if workers > n {
		workers = n
	}
	win := hit{raw: math.Inf(1), global: -1}
	if workers <= 1 || n < scanParallelMin {
		lws := ls.proc.pool.Get()
		scan(lws, 0, 1, nil, &win, &tr)
		ls.proc.pool.Put(lws)
	} else {
		shared := parallel.NewMinBound(math.Inf(1))
		locals := make([]hit, workers)
		traces := make([]Trace, workers)
		parallel.ForEach(workers, workers, func(w int) {
			lws := ls.proc.pool.Get()
			defer ls.proc.pool.Put(lws)
			locals[w] = hit{raw: math.Inf(1), global: -1}
			scan(lws, w, workers, shared, &locals[w], &traces[w])
		})
		for w := range locals {
			tr.add(traces[w])
			if better(locals[w], win) {
				win = locals[w]
			}
		}
	}
	if win.global < 0 {
		return ScanBestResponse{BestBits: math.Float64bits(math.Inf(1)), Trace: tr}, nil
	}
	return ScanBestResponse{
		Found:    true,
		GroupID:  win.global,
		BestBits: math.Float64bits(win.raw),
		Trace:    tr,
	}, nil
}

// ScanFixed implements ShardTransport: the fixed-cutoff k-NN cascade over
// the owned units, survivors returned in ascending global-group order.
// The cutoff cannot tighten during the scan, so the per-unit decisions —
// and the work counters — are identical at every worker count and visit
// order.
func (ls *LocalShard) ScanFixed(ctx context.Context, req ScanFixedRequest) (ScanFixedResponse, error) {
	if err := ctx.Err(); err != nil {
		return ScanFixedResponse{}, err
	}
	if err := validateQuery(req.Query); err != nil {
		return ScanFixedResponse{}, err
	}
	e := ls.proc.base.Entry(req.Length)
	if e == nil {
		return ScanFixedResponse{}, fmt.Errorf("query: length %d not indexed", req.Length)
	}
	units := ls.units[req.Length]
	var tr Trace
	n := len(units)
	if n == 0 {
		return ScanFixedResponse{}, nil
	}
	q := req.Query
	cutoff := math.Float64frombits(req.CutoffBits)
	sameLen := req.Length == len(q)
	var order []int // LB_Keogh's query order, needed for same-length scans only
	if sameLen && !ls.proc.opts.DisableLowerBounds {
		order = dist.QueryOrder(q)
	}
	scanOne := func(lws *dist.Workspace, u localUnit, ltr *Trace) (float64, bool) {
		return ls.proc.scanRepFixed(lws, q, order,
			e.Groups[u.local].Rep, e.Envelopes[u.local], sameLen, cutoff, ltr)
	}

	workers := reqWorkers(req.Workers)
	if workers > n {
		workers = n
	}
	var hits []FixedHit
	if workers <= 1 || n < scanParallelMin {
		lws := ls.proc.pool.Get()
		hits = make([]FixedHit, 0, n)
		for _, u := range units {
			if d, ok := scanOne(lws, u, &tr); ok {
				hits = append(hits, FixedHit{GroupID: u.global, Dist: d})
			}
		}
		ls.proc.pool.Put(lws)
	} else {
		found := make([]FixedHit, n)
		kept := make([]bool, n)
		traces := make([]Trace, workers)
		parallel.ForEach(workers, workers, func(w int) {
			lws := ls.proc.pool.Get()
			defer ls.proc.pool.Put(lws)
			for i := w; i < n; i += workers {
				if d, ok := scanOne(lws, units[i], &traces[w]); ok {
					found[i] = FixedHit{GroupID: units[i].global, Dist: d}
					kept[i] = true
				}
			}
		})
		for _, t := range traces {
			tr.add(t)
		}
		hits = make([]FixedHit, 0, n)
		for i, ok := range kept {
			if ok {
				hits = append(hits, found[i])
			}
		}
	}
	return ScanFixedResponse{Hits: hits, Trace: tr}, nil
}

// EvalMembers implements ShardTransport: one round of member evaluations
// against the request's bound snapshot, positionally — the remote half of
// the coordinator's round-replay mining. LB_Kim and the early-abandoning
// DTW depend only on (query, member values, bound), all bit-identical
// across transports, so the response bits are too.
func (ls *LocalShard) EvalMembers(ctx context.Context, req EvalMembersRequest, resp *EvalMembersResponse) error {
	*resp = EvalMembersResponse{LbBits: resp.LbBits[:0], DsBits: resp.DsBits[:0]}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := validateQuery(req.Query); err != nil {
		return err
	}
	series := ls.proc.base.Dataset.Series
	items, length := req.Items, req.Length
	for _, it := range items {
		li, ok := ls.localSeries[it.Series]
		if !ok {
			return fmt.Errorf("query: member series %d not on shard %d", it.Series, ls.shard)
		}
		if it.Start < 0 || it.Start+length > series[li].Len() {
			return fmt.Errorf("query: member window [%d,%d) outside series %d", it.Start, it.Start+length, it.Series)
		}
	}
	n := len(items)
	resp.LbBits = slices.Grow(resp.LbBits, n)[:n]
	resp.DsBits = slices.Grow(resp.DsBits, n)[:n]
	resp.DTWComputed = ls.proc.evalRound(reqWorkers(req.Workers), req.Query, n, math.Float64frombits(req.BoundBits),
		func(i int) []float64 {
			it := items[i]
			return series[ls.localSeries[it.Series]].Values[it.Start : it.Start+length]
		}, resp.LbBits, resp.DsBits)
	return nil
}

// Range implements ShardTransport: the range search over the shard's
// restriction, results with global series/group ids in the shard's group
// order.
func (ls *LocalShard) Range(ctx context.Context, req RangeRequest) (RangeResponse, error) {
	if err := ctx.Err(); err != nil {
		return RangeResponse{}, err
	}
	var tr Trace
	hits, err := ls.proc.rangeSearch(reqWorkers(req.Workers), req.Query, req.Length, req.Radius, req.Exact,
		ls.series, ls.globalIDs[req.Length], &tr)
	if err != nil {
		return RangeResponse{}, err
	}
	return RangeResponse{Results: hits, Trace: tr}, nil
}
