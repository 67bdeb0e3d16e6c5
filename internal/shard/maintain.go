package shard

import (
	"errors"
	"fmt"
	"time"

	"onex/internal/core"
	"onex/internal/grouping"
	"onex/internal/ts"
)

// Append grows one existing series in time — streaming point ingestion.
// Only the suffix subsequences (windows overlapping the new points) are
// pushed through the Algorithm 1 assignment rule, once, over the global
// grouping (grouping.AppendPoints), so answers stay layout-invariant; then
// only the series' home shard and the shards holding a touched group
// refresh their index layers incrementally (rspace.Refresh) — every other
// shard is reused wholesale. Maintenance therefore costs
// O(new-subsequences × g × L) distance work instead of a rebuild.
//
// Amortized rebuilds: when the accumulated drift (fraction of
// incrementally assigned members) would cross BuildConfig.RebuildDrift, the
// full offline build re-runs over the final data instead, pinned to the
// base's indexed length set, and every shard re-derives — identical to a
// from-scratch Build over the same (normalized) dataset for those lengths.
//
// The receiver stays valid and unchanged; a new engine is returned. Points
// are scaled with the original dataset's min/max under NormalizeDataset
// (values outside the original range map outside [0,1], which is
// harmless); NormalizeNone appends raw values; NormalizePerSeries bases
// cannot Append (the original per-series scale is not retained).
func (e *Engine) Append(seriesID int, points []float64) (*Engine, error) {
	if len(points) == 0 {
		return nil, errors.New("core: no points to append")
	}
	if e.adapted {
		return nil, errors.New("core: threshold-adapted engines cannot be appended to; append to the original base first")
	}
	scaled, err := core.ScaleAppendPoints(e.cfg.Normalize, e.normMin, e.normMax, points)
	if err != nil {
		return nil, err
	}
	work := e.data.CloneShared()
	oldLens := make([]int, work.N())
	for i, s := range work.Series {
		oldLens[i] = s.Len()
	}
	if err := work.AppendPoints(seriesID, scaled); err != nil {
		return nil, err
	}
	var newCount int64
	for _, l := range e.grouped.Lengths {
		lo, hi := work.Series[seriesID].NewWindowStarts(oldLens[seriesID], l)
		newCount += int64(hi - lo)
	}
	return e.maintainOrRebuild(work, newCount, []int{ShardOf(seriesID, e.shards)},
		func() (*grouping.Result, *grouping.Delta, error) {
			return grouping.AppendPoints(work, e.grouped, oldLens, e.maintenanceConfig())
		})
}

// Extend adds series to the base incrementally: the new series join the
// existing similarity groups via the Algorithm 1 assignment rule (only the
// new subsequences are clustered) and only the affected shards refresh.
// New series ids continue after the existing ones and hash to their shards
// without disturbing the placement of old series. Extend participates in
// the amortized rebuild policy like Append. New series are scaled like
// Append's points, except that NormalizePerSeries scales each new series
// by itself.
func (e *Engine) Extend(newSeries []*ts.Series) (*Engine, error) {
	if len(newSeries) == 0 {
		return nil, errors.New("core: no series to add")
	}
	if e.adapted {
		return nil, errors.New("core: threshold-adapted engines cannot be extended; extend the original base first")
	}
	work := e.data.CloneShared()
	from := work.N()
	homes := make([]int, 0, len(newSeries))
	for _, s := range newSeries {
		if s == nil || s.Len() == 0 {
			return nil, errors.New("core: empty new series")
		}
		// Reject non-finite values at the boundary, as Build (Validate) and
		// Append (Dataset.AppendPoints) do — a NaN window would found a
		// group with a NaN representative and poison every later query.
		if i := ts.CheckFinite(s.Values); i >= 0 {
			return nil, fmt.Errorf("core: new series has non-finite value %v at index %d", s.Values[i], i)
		}
		values, err := core.ScaleNewSeries(e.cfg.Normalize, e.normMin, e.normMax, s.Values)
		if err != nil {
			return nil, err
		}
		homes = append(homes, ShardOf(work.N(), e.shards))
		work.Append(s.Label, values)
	}
	var newCount int64
	for _, s := range work.Series[from:] {
		for _, l := range e.grouped.Lengths {
			if n := s.Len() - l + 1; n > 0 {
				newCount += int64(n)
			}
		}
	}
	return e.maintainOrRebuild(work, newCount, homes,
		func() (*grouping.Result, *grouping.Delta, error) {
			return grouping.Extend(work, e.grouped, from, e.maintenanceConfig())
		})
}

func (e *Engine) maintenanceConfig() grouping.Config {
	return grouping.Config{
		ST:      e.cfg.ST,
		Seed:    e.cfg.Seed,
		Workers: e.cfg.Workers,
	}
}

// maintainOrRebuild finishes a maintenance step over the grown dataset,
// applying the rebuild decision rule (core.RebuildDue over the global drift
// counters) so every layout rebuilds at precisely the same appends. The
// rebuild's length set is pinned to the currently indexed lengths — never
// re-resolved from the grown data — so crossing the drift threshold can
// never change which query lengths the base answers; Progress/Cancel flow
// like the original build's, so a serving layer can abort a
// maintenance-triggered rebuild on shutdown. homes lists the shards whose
// data grew; shards holding a touched group join them in re-deriving their
// index layers, everything else is reused.
func (e *Engine) maintainOrRebuild(work *ts.Dataset, newCount int64, homes []int,
	incremental func() (*grouping.Result, *grouping.Delta, error)) (*Engine, error) {

	rebuild := core.RebuildDue(e.cfg.RebuildDrift, e.grouped.TotalSubseq, e.grouped.IncrementalMembers, newCount)
	start := time.Now()
	next := &Engine{
		shards: e.shards, workerURLs: e.workerURLs,
		cfg: e.cfg, normMin: e.normMin, normMax: e.normMax,
		data: work, rebuilds: e.rebuilds, lastRebuild: e.lastRebuild,
	}
	if rebuild {
		gr, err := grouping.Build(work, grouping.Config{
			ST:       e.cfg.ST,
			Lengths:  e.grouped.Lengths, // pinned: the query surface never changes
			Seed:     e.cfg.Seed,
			Workers:  e.cfg.Workers,
			Progress: e.cfg.Progress,
			Cancel:   e.cfg.Cancel,
		})
		if err != nil {
			return nil, err
		}
		next.grouped = gr
		if err := next.assemble(nil, nil, nil); err != nil {
			return nil, err
		}
		next.buildTime = time.Since(start)
		next.rebuilds++
		next.lastRebuild = next.buildTime
		return next, nil
	}

	gr, delta, err := incremental()
	if err != nil {
		return nil, err
	}
	next.grouped = gr
	affected := e.affectedShards(delta, homes)
	if err := next.assemble(e, affected, delta); err != nil {
		return nil, err
	}
	next.buildTime = time.Since(start)
	return next, nil
}

// affectedShards marks the shards a maintenance delta invalidates: the home
// shards (their sub-dataset and restricted member lists grew — new groups'
// members are exclusively new positions, so homes cover them) and every
// shard holding a touched group (its representative moved, so the shard's
// Dc rows, envelope and restricted member order for that group are stale).
// All other shards' state is value-identical to a fresh derivation and is
// reused.
func (e *Engine) affectedShards(delta *grouping.Delta, homes []int) []bool {
	affected := make([]bool, e.shards)
	for _, h := range homes {
		affected[h] = true
	}
	for length, touched := range delta.Touched {
		for _, k := range touched {
			for s, p := range e.parts {
				if !affected[s] && p.has(length, k) {
					affected[s] = true
				}
			}
		}
	}
	return affected
}
