// Package shard implements the ONEX serving engine: one dataset's series
// are hash-partitioned across N ≥ 1 shards, each holding its own GTI/LSI
// index layers (inter-representative distance lists, envelopes, scan
// orders) over just its series, built concurrently on the shared worker
// pool and queried through query.Scatter. One in-process shard holding
// every series is the unsharded engine; there is no second code path.
//
// # Why the grouping stays global
//
// ONEX's query semantics are grouping-dependent: BestMatch mines the group
// of the nearest representative, k-NN's cut and walk orders derive from the
// group structure, and seasonal patterns ARE the groups. Truly independent
// per-shard groupings would therefore change answers — Algorithm 1 over a
// subset of the series produces different groups than over the whole
// dataset, and a scatter-gather min-merge over different groupings is a
// different (uncomparable) approximation. This engine instead runs the ONE
// deterministic global grouping every layout shares (grouping.Build —
// bit-identical for a fixed dataset/ST/lengths/seed at every worker count)
// and partitions everything downstream of it by series:
//
//   - each shard gets the sub-dataset of its series (value arrays shared,
//     zero copy) and the restriction of every global group to those series
//     (shared representative, preserved member order and EDs). A shard that
//     holds every series indexes the global group objects themselves;
//   - the expensive per-length index layers — the sparse top-k Dc neighbor
//     lists, the LB_Keogh envelopes, the scan orders — are built per shard
//     over the restricted group sets, concurrently on the internal/parallel
//     pool;
//   - queries scatter across shards and gather exactly one decision
//     procedure (see query.Scatter for the per-query argument), so every
//     shard count answers identically;
//   - the SP-Space guidance surface (Recommend, DegreeOf, STHalf/STFinal)
//     is computed once from the global grouping at assemble time (see
//     assemble), so it too is bit-identical at every shard count, without
//     materializing a global distance matrix;
//   - incremental maintenance (Append/Extend) runs the global assignment
//     rule once, then refreshes only the shards whose series or groups the
//     step touched; untouched shards are reused wholesale;
//   - threshold adaptation (WithThreshold, Sec. 5.2) splits or merges the
//     global groups once and re-assembles the same layout over the result.
//
// # Persistence
//
// An engine snapshots as a single version-5 stream carrying the global
// dataset + grouping payload plus the shard count: per-shard state is
// derived, like the Dc neighbor lists, and is re-derived on load. Version
// ≤ 3 snapshots load as one shard.
package shard

import (
	"fmt"
	"sort"
	"time"

	"onex/internal/core"
	"onex/internal/grouping"
	"onex/internal/obs"
	"onex/internal/parallel"
	"onex/internal/query"
	"onex/internal/rspace"
	"onex/internal/shardrpc"
	"onex/internal/ts"
)

// Engine is a serving engine over one dataset with a fixed shard layout.
// It is immutable after construction: Append/Extend/WithThreshold return
// new engines and the receiver stays valid, so any number of queries can
// run concurrently with maintenance swaps.
type Engine struct {
	shards int
	// workerURLs, when non-empty, places every shard on a remote worker
	// process (shard s on workerURLs[s%len]); empty keeps shards in-process.
	// The list is serving-time configuration, not persisted state.
	workerURLs       []string
	cfg              core.BuildConfig
	normMin, normMax float64
	// data is the global normalized dataset; shard sub-datasets share its
	// (immutable) value arrays.
	data *ts.Dataset
	// grouped is the global grouping every layout shares.
	grouped *grouping.Result
	// adapted marks a threshold-adapted engine (WithThreshold), which
	// refuses maintenance and Save.
	adapted bool
	parts   []*part
	scatter *query.Scatter

	// spHalf/spFinal are the per-length SP-Space critical thresholds of the
	// ONE global grouping, computed at assemble time — never from per-shard
	// aggregates, so Recommend/DegreeOf/STHalf/STFinal answer
	// bit-identically at every shard count.
	spHalf, spFinal map[int]float64
	// globalSTHalf/globalSTFinal are the dataset-wide maxima over lengths,
	// mirroring rspace.Base.GlobalSTHalf/GlobalSTFinal.
	globalSTHalf, globalSTFinal float64

	buildTime   time.Duration
	savedAt     time.Time
	rebuilds    int64
	lastRebuild time.Duration
}

// part is one shard: its series and local↔global translation tables, plus
// the transport the coordinator drives it through. Local parts additionally
// hold the restricted base and its processor (the state behind the
// transport); remote parts hold only the tables — their index lives in the
// worker process, reachable through the transport.
type part struct {
	// series maps local series index → global series id (ascending).
	series []int
	// base/proc back an in-process part; nil when the shard is remote.
	base *rspace.Base
	proc *query.Processor
	// transport is how the scatter coordinator reaches the shard
	// (query.LocalShard in-process, shardrpc.Client remote).
	transport query.ShardTransport
	// gen is the generation nonce of the shipped state (remote parts only):
	// the idempotency key component workers key resident state by.
	gen string
	// globalIDs maps, per length, local group index → global group id. A
	// fresh derivation orders locals by global id; an incremental refresh
	// preserves the previous local order (so index state can be reused) and
	// appends newly-present groups, so the slice is NOT always sorted.
	globalIDs map[int][]int
	// sortedIDs holds the same ids per length in ascending order, for
	// membership tests.
	sortedIDs map[int][]int
	// owned marks, per length, the local groups this shard scans for the
	// global representative phase.
	owned map[int][]bool
}

// holdsAll reports whether the part holds every series of data. Its local
// series ids then equal the global ones and every restriction keeps every
// member, so the part indexes the global group objects themselves.
func (p *part) holdsAll(data *ts.Dataset) bool { return len(p.series) == data.N() }

// has reports whether the part holds global group k of the given length.
// sortedIDs (not globalIDs: an incremental refresh appends newly-present
// groups out of id order) is searched.
func (p *part) has(length, k int) bool {
	ids := p.sortedIDs[length]
	i := sort.SearchInts(ids, k)
	return i < len(ids) && ids[i] == k
}

// ShardOf is the stable series→shard routing function: a splitmix64-style
// mix of the global series id modulo the shard count. It depends only on
// (seriesID, shards), so appends and extensions route deterministically
// across processes and restarts, and new series ids (which continue after
// the existing ones) hash without disturbing the placement of old ones.
func ShardOf(seriesID, shards int) int {
	if shards <= 1 {
		return 0
	}
	z := uint64(seriesID) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// Build constructs an engine over the dataset with the requested shard
// count. Shards 0 and 1 both select one shard; counts above the series
// count clamp to it (a shard needs at least a chance of holding a series);
// negative counts error. The input is normalized into a copy
// (core.PrepareDataset) and never modified. The global grouping runs once
// on cfg.Workers, then the per-shard index layers are derived concurrently
// on the same pool.
//
// A non-empty workers list places every shard on a remote worker process
// (shard s on workers[s%len(workers)]): the engine ships each shard's
// series and grouping restriction to its worker at assembly and queries it
// over the shardrpc transport. Answers are bit-identical to the in-process
// layout (the workers rebuild the exact per-shard index from the shipped
// spec); Build fails fast if a worker is unreachable.
func Build(d *ts.Dataset, cfg core.BuildConfig, shards int, workers []string) (*Engine, error) {
	if shards < 0 {
		return nil, fmt.Errorf("shard: shard count must be ≥ 0, got %d", shards)
	}
	if shards < 1 {
		shards = 1
	}
	if d != nil && d.N() > 0 && shards > d.N() {
		shards = d.N()
	}
	work, normMin, normMax, err := core.PrepareDataset(d, cfg.Normalize)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	gr, err := grouping.Build(work, grouping.Config{
		ST:       cfg.ST,
		Lengths:  cfg.Lengths,
		Seed:     cfg.Seed,
		Workers:  cfg.Workers,
		Progress: cfg.Progress,
		Cancel:   cfg.Cancel,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{
		shards: shards, workerURLs: append([]string(nil), workers...),
		cfg: cfg, normMin: normMin, normMax: normMax,
		data: work, grouped: gr,
	}
	if err := e.assemble(nil, nil, nil); err != nil {
		return nil, err
	}
	e.buildTime = time.Since(start)
	return e, nil
}

// assemble derives the per-shard state, the global SP-Space thresholds and
// the scatter executor from the engine's global dataset + grouping. With
// prevE/affected set, shards whose affected flag is false reuse their
// previous part wholesale — valid because an unaffected shard's series
// values are unchanged and every group it holds is value-identical to its
// previous incarnation (incremental maintenance copies untouched groups
// verbatim) — and affected shards refresh incrementally from the
// maintenance delta when one is given (refreshPart), paying index
// recomputation only for touched and new groups instead of a from-scratch
// derivation. The per-length critical thresholds reuse the previous
// engine's values for lengths the delta left untouched (no touched groups,
// no new groups — the group set is then value-identical, so the thresholds
// are too).
//
// SP-Space is computed once per length from the global grouping. A local
// part holding every series indexes the global group objects themselves,
// so its entries' thresholds — derived from the Dc matrix its index build
// evaluates anyway — are the global values bit for bit; otherwise one Prim
// pass per length runs with on-demand inter-representative distances
// (rspace.MergeThresholdsFor) — O(g) extra memory, never a materialized
// global matrix. Both evaluate the same float expression over the same
// groups.
func (e *Engine) assemble(prevE *Engine, affected []bool, delta *grouping.Delta) error {
	var prev []*part
	if prevE != nil {
		prev = prevE.parts
	}
	parts := make([]*part, e.shards)
	errs := make([]error, e.shards)
	parallel.ForEach(e.cfg.Workers, e.shards, func(s int) {
		if prev != nil && !affected[s] {
			parts[s] = prev[s]
			return
		}
		if len(e.workerURLs) > 0 {
			// Remote shards ship a fresh generation whenever they change:
			// the worker rebuilds the restricted index from the spec, so no
			// incremental-refresh path exists (or is needed) across the wire.
			parts[s], errs[s] = e.buildRemotePart(s)
			return
		}
		var (
			p   *part
			err error
		)
		if prev != nil && delta != nil {
			p, err = refreshPart(e.data, e.grouped, e.shards, s, e.cfg, prev[s], delta)
		} else {
			p, err = buildPart(e.data, e.grouped, e.shards, s, e.cfg)
		}
		if err == nil {
			p.transport, err = query.NewLocalShard(p.proc, s, p.series, p.globalIDs, p.owned)
		}
		parts[s], errs[s] = p, err
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	var whole *rspace.Base
	for _, p := range parts {
		if p.base != nil && p.holdsAll(e.data) {
			whole = p.base
			break
		}
	}
	lengths := e.grouped.Lengths
	halves := make([]float64, len(lengths))
	finals := make([]float64, len(lengths))
	parallel.ForEach(e.cfg.Workers, len(lengths), func(i int) {
		l := lengths[i]
		if whole != nil {
			halves[i], finals[i] = whole.Entry(l).STHalf, whole.Entry(l).STFinal
			return
		}
		groups := e.grouped.ByLength[l].Groups
		if prevE != nil && delta != nil &&
			len(delta.Touched[l]) == 0 && delta.PrevGroups[l] == len(groups) {
			halves[i], finals[i] = prevE.spHalf[l], prevE.spFinal[l]
			return
		}
		halves[i], finals[i] = rspace.MergeThresholdsFor(groups, l, e.grouped.ST)
	})
	e.spHalf = make(map[int]float64, len(lengths))
	e.spFinal = make(map[int]float64, len(lengths))
	e.globalSTHalf, e.globalSTFinal = 0, 0
	for i, l := range lengths {
		e.spHalf[l] = halves[i]
		e.spFinal[l] = finals[i]
		if halves[i] > e.globalSTHalf {
			e.globalSTHalf = halves[i]
		}
		if finals[i] > e.globalSTFinal {
			e.globalSTFinal = finals[i]
		}
	}
	transports := make([]query.ShardTransport, e.shards)
	for s, p := range parts {
		transports[s] = p.transport
	}
	globalBase := &rspace.Base{
		Dataset:     e.data,
		ST:          e.grouped.ST,
		Lengths:     append([]int(nil), e.grouped.Lengths...),
		Entries:     make(map[int]*rspace.LengthEntry, len(e.grouped.Lengths)),
		TotalSubseq: e.grouped.TotalSubseq,
	}
	for _, l := range e.grouped.Lengths {
		globalBase.Entries[l] = &rspace.LengthEntry{Length: l, Groups: e.grouped.ByLength[l].Groups}
	}
	sc, err := query.NewScatter(globalBase, e.cfg.Query, transports)
	if err != nil {
		return err
	}
	e.parts = parts
	e.scatter = sc
	return nil
}

// buildPart derives one shard: the sub-dataset of its series (shared value
// arrays), the restriction of every global group to those series (shared
// representative, member order and EDs preserved — restriction of a sorted
// list is sorted), and the full GTI/LSI index layers over the restricted
// group set. A part holding every series shares the global group objects
// instead of copying them. Group ownership — which shard scans a
// representative — goes to the shard holding the group's nearest member
// (Members[0] of the global LSI order), a pure function of the global
// grouping.
func buildPart(data *ts.Dataset, gr *grouping.Result, shards, s int, cfg core.BuildConfig) (*part, error) {
	p := &part{
		globalIDs: make(map[int][]int, len(gr.Lengths)),
		sortedIDs: make(map[int][]int, len(gr.Lengths)),
		owned:     make(map[int][]bool, len(gr.Lengths)),
	}
	localOf := p.collectSeries(data, shards, s)
	whole := p.holdsAll(data)

	res := &grouping.Result{
		ST:       gr.ST,
		Lengths:  append([]int(nil), gr.Lengths...),
		ByLength: make(map[int]*grouping.LengthGroups, len(gr.Lengths)),
	}
	for _, l := range gr.Lengths {
		src := gr.ByLength[l]
		lg := &grouping.LengthGroups{Length: l, Groups: make([]*grouping.Group, 0, len(src.Groups))}
		gids := make([]int, 0, len(src.Groups))
		owned := make([]bool, 0, len(src.Groups))
		for k, g := range src.Groups {
			rg := g // every member kept, identity ids: local index k == global id
			if !whole {
				rg = restrictGroup(g, len(lg.Groups), shards, s, localOf)
				if rg == nil {
					continue
				}
			}
			lg.Groups = append(lg.Groups, rg)
			gids = append(gids, k)
			owned = append(owned, ShardOf(g.Members[0].SeriesIdx, shards) == s)
			res.TotalSubseq += int64(len(rg.Members))
		}
		res.ByLength[l] = lg
		p.globalIDs[l] = gids
		p.sortedIDs[l] = gids // fresh derivations order locals by global id
		p.owned[l] = owned
	}

	base, err := rspace.New(p.sub(data, s), res, rspace.Options{TopK: cfg.DcTopK})
	if err != nil {
		return nil, err
	}
	return p.finish(base, cfg.Query)
}

// buildRemotePart derives one remote shard: the same series routing and
// grouping restriction buildPart computes — but with global series ids, as
// a wire ShardSpec — shipped to the shard's worker under a fresh generation
// nonce. The worker rebuilds the exact restricted index from the spec
// (query.BuildLocalShard runs the constructors buildPart runs, on
// bit-identical inputs), so the remote transport answers bit-identically to
// the in-process one. A shard the hash leaves empty stays in-process (there
// is nothing to ship, and the empty local transport costs nothing).
func (e *Engine) buildRemotePart(s int) (*part, error) {
	p := &part{
		gen:       obs.NewRequestID(),
		globalIDs: make(map[int][]int, len(e.grouped.Lengths)),
		sortedIDs: make(map[int][]int, len(e.grouped.Lengths)),
		owned:     make(map[int][]bool, len(e.grouped.Lengths)),
	}
	p.collectSeries(e.data, e.shards, s)
	if len(p.series) == 0 {
		return e.buildLocalPart(s)
	}
	name := e.data.Name
	if name == "" {
		name = "dataset"
	}
	spec := query.ShardSpec{
		Dataset:    name,
		Generation: p.gen,
		Shard:      s,
		Shards:     e.shards,
		ST:         e.grouped.ST,
		DcTopK:     e.cfg.DcTopK,
		Opts:       e.cfg.Query,
		Series:     make([]query.SpecSeries, 0, len(p.series)),
		Lengths:    make([]query.SpecLength, 0, len(e.grouped.Lengths)),
	}
	for _, id := range p.series {
		spec.Series = append(spec.Series, query.SpecSeries{
			ID:     id,
			Label:  e.data.Series[id].Label,
			Values: e.data.Series[id].Values,
		})
	}
	for _, l := range e.grouped.Lengths {
		src := e.grouped.ByLength[l]
		sl := query.SpecLength{Length: l}
		gids := make([]int, 0, len(src.Groups))
		owned := make([]bool, 0, len(src.Groups))
		for k, g := range src.Groups {
			members := restrictMembersGlobal(g, e.shards, s)
			if len(members) == 0 {
				continue
			}
			own := ShardOf(g.Members[0].SeriesIdx, e.shards) == s
			sl.Groups = append(sl.Groups, query.SpecGroup{
				GlobalID: k,
				Owned:    own,
				Rep:      g.Rep,
				Members:  members,
			})
			gids = append(gids, k)
			owned = append(owned, own)
		}
		spec.Lengths = append(spec.Lengths, sl)
		p.globalIDs[l] = gids
		p.sortedIDs[l] = gids // global iteration order is ascending
		p.owned[l] = owned
	}
	worker := e.workerURLs[s%len(e.workerURLs)]
	client, err := shardrpc.NewClient(worker, spec, shardrpc.ClientOptions{})
	if err != nil {
		return nil, fmt.Errorf("shard: ship shard %d to worker %s: %w", s, worker, err)
	}
	p.transport = client
	return p, nil
}

// buildLocalPart is buildPart plus the transport wrap (the fallback for
// hash-empty shards of a remote layout).
func (e *Engine) buildLocalPart(s int) (*part, error) {
	p, err := buildPart(e.data, e.grouped, e.shards, s, e.cfg)
	if err != nil {
		return nil, err
	}
	p.transport, err = query.NewLocalShard(p.proc, s, p.series, p.globalIDs, p.owned)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// restrictMembersGlobal is restrictMembers on the wire: the restriction of
// one global group's member list to the shard's series, keeping global
// series ids (the worker remaps to its local order, which equals the
// coordinator's — both ascend the same id set).
func restrictMembersGlobal(g *grouping.Group, shards, s int) []query.SpecMember {
	var members []query.SpecMember
	for _, m := range g.Members {
		if ShardOf(m.SeriesIdx, shards) != s {
			continue
		}
		members = append(members, query.SpecMember{
			Series:  m.SeriesIdx,
			Start:   m.Start,
			EDToRep: m.EDToRep,
		})
	}
	return members
}

// collectSeries fills p.series with the shard's series (ascending global
// id) and returns the global→local index map. The sub-dataset itself is
// derived separately (sub) so refreshPart can share this step.
func (p *part) collectSeries(data *ts.Dataset, shards, s int) map[int]int {
	localOf := make(map[int]int)
	for id := range data.Series {
		if ShardOf(id, shards) != s {
			continue
		}
		localOf[id] = len(p.series)
		p.series = append(p.series, id)
	}
	return localOf
}

// sub materializes the shard's sub-dataset: fresh series headers sharing
// the (immutable) global value arrays, local ids in p.series order — or the
// global dataset itself when the part holds every series.
func (p *part) sub(data *ts.Dataset, s int) *ts.Dataset {
	if p.holdsAll(data) {
		return data
	}
	sub := &ts.Dataset{Name: fmt.Sprintf("%s#%d", data.Name, s)}
	for _, id := range p.series {
		sub.Append(data.Series[id].Label, data.Series[id].Values)
	}
	return sub
}

// finish wraps the restricted base with its query processor.
func (p *part) finish(base *rspace.Base, qopts query.Options) (*part, error) {
	proc, err := query.New(base, qopts)
	if err != nil {
		return nil, err
	}
	p.base = base
	p.proc = proc
	return p, nil
}

// restrictGroup returns the shard's local group id: global group g's
// member list filtered down to the shard's series and remapped to local
// ids, sharing g's (immutable) representative — or nil when no member is
// resident. Restriction of the (ED-sorted) global LSI order preserves it.
func restrictGroup(g *grouping.Group, id, shards, s int, localOf map[int]int) *grouping.Group {
	var members []grouping.Member
	for _, m := range g.Members {
		if ShardOf(m.SeriesIdx, shards) != s {
			continue
		}
		members = append(members, grouping.Member{
			SeriesIdx: localOf[m.SeriesIdx],
			Start:     m.Start,
			EDToRep:   m.EDToRep,
		})
	}
	if len(members) == 0 {
		return nil
	}
	return &grouping.Group{Length: g.Length, ID: id, Rep: g.Rep, Members: members}
}

// refreshPart is buildPart's incremental form, run on the shards a
// maintenance delta touched: previously-present groups keep their local
// indices (untouched ones reuse the previous restricted group object
// wholesale — it is value-identical), groups the step touched re-restrict,
// and groups newly present in the shard (touched groups gaining their
// first member here, or brand-new groups) append at the end. The
// prefix-stable local order lets rspace.Refresh reuse every Dc entry and
// envelope not involving a touched or appended group, so the refresh costs
// O(changed·gₛ·L + gₛ²) instead of buildPart's O(gₛ²·L) — and is proven
// bit-identical to a fresh derivation (rspace.Refresh's contract, plus the
// structural equality test in this package).
//
// The shard's series membership only grows (new ids hash in above all old
// ids), so the previous local series order is a prefix of the new one and
// every reused member index stays valid.
func refreshPart(data *ts.Dataset, gr *grouping.Result, shards, s int, cfg core.BuildConfig,
	prev *part, delta *grouping.Delta) (*part, error) {

	p := &part{
		globalIDs: make(map[int][]int, len(gr.Lengths)),
		sortedIDs: make(map[int][]int, len(gr.Lengths)),
		owned:     make(map[int][]bool, len(gr.Lengths)),
	}
	localOf := p.collectSeries(data, shards, s)
	whole := p.holdsAll(data)

	res := &grouping.Result{
		ST:       gr.ST,
		Lengths:  append([]int(nil), gr.Lengths...),
		ByLength: make(map[int]*grouping.LengthGroups, len(gr.Lengths)),
	}
	localDelta := &grouping.Delta{
		PrevGroups: make(map[int]int, len(gr.Lengths)),
		Touched:    make(map[int][]int, len(gr.Lengths)),
	}
	for _, l := range gr.Lengths {
		src := gr.ByLength[l]
		prevIDs := prev.globalIDs[l]
		prevGroups := prev.base.Entry(l).Groups
		touched := make(map[int]bool, len(delta.Touched[l]))
		for _, k := range delta.Touched[l] {
			touched[k] = true
		}

		lg := &grouping.LengthGroups{Length: l}
		gids := make([]int, 0, len(prevIDs))
		owned := make([]bool, 0, len(prevIDs))
		var localTouched []int
		for li, k := range prevIDs {
			g := src.Groups[k]
			rg := prevGroups[li]
			switch {
			case whole && li == k:
				rg = g // value-identical when untouched; the current object either way
			case touched[k]:
				rg = restrictGroup(g, li, shards, s, localOf)
			}
			if touched[k] {
				localTouched = append(localTouched, li)
			}
			lg.Groups = append(lg.Groups, rg)
			gids = append(gids, k)
			owned = append(owned, ShardOf(g.Members[0].SeriesIdx, shards) == s)
			res.TotalSubseq += int64(len(rg.Members))
		}

		// Only groups whose membership changed can newly enter the shard:
		// touched old groups not present before, and brand-new groups.
		candidates := make([]int, 0, len(delta.Touched[l]))
		for _, k := range delta.Touched[l] {
			if !prev.has(l, k) {
				candidates = append(candidates, k)
			}
		}
		for k := delta.PrevGroups[l]; k < len(src.Groups); k++ {
			candidates = append(candidates, k)
		}
		sort.Ints(candidates)
		for _, k := range candidates {
			g := src.Groups[k]
			rg := g
			if !whole || len(lg.Groups) != k {
				rg = restrictGroup(g, len(lg.Groups), shards, s, localOf)
				if rg == nil {
					continue
				}
			}
			lg.Groups = append(lg.Groups, rg)
			gids = append(gids, k)
			owned = append(owned, ShardOf(g.Members[0].SeriesIdx, shards) == s)
			res.TotalSubseq += int64(len(rg.Members))
		}

		res.ByLength[l] = lg
		p.globalIDs[l] = gids
		sorted := append([]int(nil), gids...)
		sort.Ints(sorted)
		p.sortedIDs[l] = sorted
		p.owned[l] = owned
		localDelta.PrevGroups[l] = len(prevIDs)
		localDelta.Touched[l] = localTouched
	}

	base, err := rspace.Refresh(p.sub(data, s), res, rspace.Options{TopK: cfg.DcTopK}, prev.base, localDelta)
	if err != nil {
		return nil, err
	}
	return p.finish(base, cfg.Query)
}
