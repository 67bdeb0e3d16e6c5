package shard

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"onex/internal/core"
	"onex/internal/query"
	"onex/internal/rspace"
	"onex/internal/ts"
)

func TestShardOf(t *testing.T) {
	// Deterministic, in-range, and not degenerate.
	counts := make([]int, 8)
	for id := 0; id < 4096; id++ {
		s := ShardOf(id, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%d, 8) = %d out of range", id, s)
		}
		if s != ShardOf(id, 8) {
			t.Fatalf("ShardOf(%d, 8) unstable", id)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 256 || c > 768 { // expect ~512 each; allow wide slack
			t.Errorf("shard %d holds %d of 4096 ids — hash is badly skewed", s, c)
		}
	}
	if ShardOf(42, 1) != 0 || ShardOf(42, 0) != 0 {
		t.Error("degenerate shard counts must route to 0")
	}
}

func TestBuildValidation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := randomDataset(r, 6, 24)
	cfg := core.BuildConfig{ST: 0.3, Lengths: []int{6, 10}, Seed: 1}

	if _, err := Build(d, cfg, -1, nil); err == nil {
		t.Error("negative shard count: want error")
	}
	for _, shards := range []int{0, 1} {
		e, err := Build(d, cfg, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.ShardCount() != 1 {
			t.Errorf("Shards=%d: ShardCount = %d, want 1 (one-shard layout)", shards, e.ShardCount())
		}
	}
	// Counts above the series count clamp to it.
	e, err := Build(d, cfg, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.ShardCount() != d.N() {
		t.Errorf("Shards=100 over %d series: ShardCount = %d, want %d", d.N(), e.ShardCount(), d.N())
	}
}

// TestRestrictionIntegrity checks the derived per-shard state against the
// global grouping: complete member coverage, preserved LSI order, and
// exactly-once group ownership.
func TestRestrictionIntegrity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := randomDataset(r, 16, 30)
	cfg := core.BuildConfig{ST: 0.3, Lengths: []int{6, 10, 14}, Seed: 2}
	e, err := Build(d, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}

	var resident int64
	for _, p := range e.parts {
		resident += p.base.TotalSubseq
		for _, l := range e.grouped.Lengths {
			entry := p.base.Entry(l)
			if entry == nil {
				t.Fatalf("shard missing length %d", l)
			}
			for k, g := range entry.Groups {
				gid := p.globalIDs[l][k]
				global := e.grouped.ByLength[l].Groups[gid]
				if &g.Rep[0] != &global.Rep[0] {
					t.Fatalf("length %d local group %d does not share the global representative", l, k)
				}
				for i := 1; i < len(g.Members); i++ {
					if g.Members[i-1].EDToRep > g.Members[i].EDToRep {
						t.Fatalf("length %d group %d: restricted member order not LSI-sorted", l, k)
					}
				}
				for _, m := range g.Members {
					globalSid := p.series[m.SeriesIdx]
					if ShardOf(globalSid, e.shards) != p.shardIndex(e) {
						t.Fatalf("length %d group %d holds foreign series %d", l, k, globalSid)
					}
				}
			}
		}
	}
	if resident != e.grouped.TotalSubseq {
		t.Errorf("resident subsequences %d != global %d", resident, e.grouped.TotalSubseq)
	}

	// Ownership: every global group owned exactly once.
	for _, l := range e.grouped.Lengths {
		owners := make([]int, len(e.grouped.ByLength[l].Groups))
		for _, p := range e.parts {
			for local, own := range p.owned[l] {
				if own {
					owners[p.globalIDs[l][local]]++
				}
			}
		}
		for k, c := range owners {
			if c != 1 {
				t.Errorf("length %d global group %d owned %d times", l, k, c)
			}
		}
	}
}

func (p *part) shardIndex(e *Engine) int {
	for i, q := range e.parts {
		if q == p {
			return i
		}
	}
	return -1
}

// TestEmptyShard forces a layout where some shard receives no series and
// checks the engine still builds and answers.
func TestEmptyShard(t *testing.T) {
	// Find a (series count, shard count) pair with an unoccupied shard.
	n, shards := -1, -1
search:
	for nn := 3; nn <= 8; nn++ {
		for ss := 2; ss <= nn; ss++ {
			occupied := make([]bool, ss)
			for id := 0; id < nn; id++ {
				occupied[ShardOf(id, ss)] = true
			}
			for _, occ := range occupied {
				if !occ {
					n, shards = nn, ss
					break search
				}
			}
		}
	}
	if n < 0 {
		t.Skip("hash occupies every shard for all tested layouts")
	}
	r := rand.New(rand.NewSource(3))
	d := randomDataset(r, n, 26)
	cfg := core.BuildConfig{ST: 0.3, Lengths: []int{6, 10}, Seed: 1}
	e, err := Build(d, cfg, shards, nil)
	if err != nil {
		t.Fatalf("build with empty shard: %v", err)
	}
	oneShard, err := Build(d, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := randomQueries(r, d, cfg.Lengths, 6)
	compareEngines(t, "empty-shard", oneShard, e, queries, cfg.Lengths, cfg.ST)
}

// TestWithThresholdSharded pins Sec. 5.2 adaptation at every layout: the
// split/merge rules run once over the global grouping and re-assemble, so
// adapted engines at 1, 2 and 3 shards, in-process and remote, at
// parallelism 1 and 8, answer Float64bits-equal to the oracle over the
// adapted grouping (and to each other), and every adapted engine refuses
// maintenance and Save.
func TestWithThresholdSharded(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := randomDataset(r, 10, 26)
	lengths := []int{6, 10}
	queries := randomQueries(r, d, lengths, 6)
	urls, _ := startWorkers(t, 2)
	for _, par := range []int{1, 8} {
		cfg := core.BuildConfig{ST: 0.3, Lengths: lengths, Seed: 1, Query: query.Options{Parallelism: par}}
		var layouts []*Engine
		for _, l := range []struct {
			shards  int
			workers []string
		}{{0, nil}, {2, nil}, {3, nil}, {3, urls}} {
			e, err := Build(d, cfg, l.shards, l.workers)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			layouts = append(layouts, e)
		}
		for _, stPrime := range []float64{0.15, 0.3, 0.5} {
			var one *Engine
			for i, e := range layouts {
				name := fmt.Sprintf("p%d layout%d st'=%v", par, i, stPrime)
				adapted, err := e.WithThreshold(stPrime)
				if err != nil {
					t.Fatalf("%s: WithThreshold: %v", name, err)
				}
				if adapted.ST() != stPrime || adapted.ShardCount() != e.ShardCount() {
					t.Fatalf("%s: adapted ST %v shards %d, want %v and %d",
						name, adapted.ST(), adapted.ShardCount(), stPrime, e.ShardCount())
				}
				if one == nil {
					one = adapted
				}
				compareEngines(t, name, one, adapted, queries, lengths, stPrime)
				if _, err := adapted.Append(0, []float64{0.5}); err == nil {
					t.Errorf("%s: adapted Append succeeded", name)
				}
				if _, err := adapted.Extend([]*ts.Series{{Values: []float64{1, 2, 3, 4, 5, 6}}}); err == nil {
					t.Errorf("%s: adapted Extend succeeded", name)
				}
				if err := adapted.Save(io.Discard); err == nil {
					t.Errorf("%s: adapted Save succeeded", name)
				}
			}
		}
	}
	e, err := Build(d, core.BuildConfig{ST: 0.3, Lengths: lengths, Seed: 1}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WithThreshold(0); err == nil {
		t.Error("WithThreshold(0): want error")
	}
}

func TestLayoutSignature(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	d := randomDataset(r, 12, 24)
	cfg := core.BuildConfig{ST: 0.3, Lengths: []int{6, 10}, Seed: 1}
	sigs := make(map[uint64]int)
	for _, shards := range []int{1, 2, 3, 4} {
		e, err := Build(d, cfg, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := sigs[e.LayoutSignature()]; dup {
			t.Errorf("layouts %d and %d share a signature", prev, shards)
		}
		sigs[e.LayoutSignature()] = shards
	}
	// Growing a shard's population changes the signature too.
	e, err := Build(d, cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := e.Append(0, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.LayoutSignature() == grown.LayoutSignature() {
		t.Error("append did not change the layout signature")
	}
}

// TestPersistRoundTrip saves an engine and checks the reload answers
// identically and preserves the layout at one and at four shards.
func TestPersistRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	d := randomDataset(r, 14, 28)
	lengths := []int{6, 10, 14}
	cfg := core.BuildConfig{ST: 0.3, Lengths: lengths, Seed: 4,
		Query: query.Options{Parallelism: 2}}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			e, err := Build(d, cfg, shards, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Grow it first so drift survives the round trip too.
			e, err = e.Append(1, []float64{0.5, 0.6, 0.7, 0.65})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(buf.Bytes()), nil)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.ShardCount() != e.ShardCount() {
				t.Fatalf("reloaded shard count %d, want %d", loaded.ShardCount(), e.ShardCount())
			}
			if loaded.Drift() != e.Drift() {
				t.Errorf("reloaded drift %v, want %v", loaded.Drift(), e.Drift())
			}
			queries := randomQueries(r, loaded.data, lengths, 8)
			compareEngines(t, "reload", e, loaded, queries, lengths, cfg.ST)
		})
	}
}

// TestRefreshPartBitIdentical proves the incremental per-shard refresh is a
// pure cost optimization: after maintenance steps, every part of the
// engine must carry exactly the index state a from-scratch derivation over
// the final data would (Dc entries, envelopes, members, SP-Space values),
// modulo the local numbering (the refresh preserves its previous order and
// appends newly-present groups; a fresh derivation orders by global id).
func TestRefreshPartBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	d := randomDataset(r, 14, 26)
	cfg := core.BuildConfig{ST: 0.35, Lengths: []int{6, 10}, Seed: 3, RebuildDrift: -1}
	e, err := Build(d, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		if step%2 == 0 {
			pts := make([]float64, 3+r.Intn(5))
			x := r.Float64()
			for j := range pts {
				x += r.NormFloat64() * 0.1
				pts[j] = x
			}
			if e, err = e.Append(r.Intn(e.NumSeries()), pts); err != nil {
				t.Fatal(err)
			}
		} else {
			v := make([]float64, 18+r.Intn(10))
			x := r.Float64() * 3
			for j := range v {
				x += r.NormFloat64() * 0.4
				v[j] = x
			}
			if e, err = e.Extend([]*ts.Series{{Label: "n", Values: v}}); err != nil {
				t.Fatal(err)
			}
		}
		for s, got := range e.parts {
			want, err := buildPart(e.data, e.grouped, e.shards, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			comparePartState(t, step, s, got, want)
		}
	}
}

// comparePartState checks two derivations of the same shard hold identical
// index state per global group id.
func comparePartState(t *testing.T, step, s int, got, want *part) {
	t.Helper()
	if got.base.TotalSubseq != want.base.TotalSubseq {
		t.Fatalf("step %d shard %d: subseq %d vs %d", step, s, got.base.TotalSubseq, want.base.TotalSubseq)
	}
	if got.base.GlobalSTHalf != want.base.GlobalSTHalf || got.base.GlobalSTFinal != want.base.GlobalSTFinal {
		t.Fatalf("step %d shard %d: SP-Space diverged", step, s)
	}
	for _, l := range got.base.Lengths {
		ge, we := got.base.Entry(l), want.base.Entry(l)
		if len(ge.Groups) != len(we.Groups) {
			t.Fatalf("step %d shard %d length %d: %d vs %d groups", step, s, l, len(ge.Groups), len(we.Groups))
		}
		if ge.STHalf != we.STHalf || ge.STFinal != we.STFinal {
			t.Fatalf("step %d shard %d length %d: entry SP-Space diverged", step, s, l)
		}
		// Map global id → local index on each side.
		gLoc := map[int]int{}
		for li, k := range got.globalIDs[l] {
			gLoc[k] = li
		}
		for wi, k := range want.globalIDs[l] {
			gi, ok := gLoc[k]
			if !ok {
				t.Fatalf("step %d shard %d length %d: refresh missing global group %d", step, s, l, k)
			}
			gg, wg := ge.Groups[gi], we.Groups[wi]
			if len(gg.Members) != len(wg.Members) {
				t.Fatalf("step %d shard %d length %d group %d: member counts diverged", step, s, l, k)
			}
			for m := range gg.Members {
				if gg.Members[m] != wg.Members[m] {
					t.Fatalf("step %d shard %d length %d group %d member %d: %+v vs %+v",
						step, s, l, k, m, gg.Members[m], wg.Members[m])
				}
			}
			for v := range gg.Rep {
				if gg.Rep[v] != wg.Rep[v] {
					t.Fatalf("step %d shard %d length %d group %d: representative diverged", step, s, l, k)
				}
			}
			for v := range ge.Envelopes[gi].Upper {
				if ge.Envelopes[gi].Upper[v] != we.Envelopes[wi].Upper[v] ||
					ge.Envelopes[gi].Lower[v] != we.Envelopes[wi].Lower[v] {
					t.Fatalf("step %d shard %d length %d group %d: envelope diverged", step, s, l, k)
				}
			}
			if got.owned[l][gi] != want.owned[l][wi] {
				t.Fatalf("step %d shard %d length %d group %d: ownership diverged", step, s, l, k)
			}
			// Sparse Dc row: the retained neighbor distances are a pure
			// function of the row (its k smallest), so the sorted value
			// lists must match bit for bit even though local indices (and
			// hence tie-breaks) differ between the two derivations.
			gds := retainedDists(ge.TopK[gi])
			wds := retainedDists(we.TopK[wi])
			if len(gds) != len(wds) {
				t.Fatalf("step %d shard %d length %d group %d: %d vs %d retained neighbors",
					step, s, l, k, len(gds), len(wds))
			}
			for v := range gds {
				if gds[v] != wds[v] {
					t.Fatalf("step %d shard %d length %d group %d: retained Dc values diverged: %v vs %v",
						step, s, l, k, gds[v], wds[v])
				}
			}
			// And where both sides retain the same global pair, the looked-up
			// values must agree exactly.
			for wj, k2 := range want.globalIDs[l] {
				wd, wok := lookupDc(we, wi, wj)
				gd, gok := lookupDc(ge, gi, gLoc[k2])
				if wok && gok && wd != gd {
					t.Fatalf("step %d shard %d length %d: Dc(%d,%d) diverged: %v vs %v",
						step, s, l, k, k2, gd, wd)
				}
			}
		}
	}
}

// retainedDists returns the distances of a sparse Dc row, sorted ascending.
// The lists are already stored sorted by (distance, index); re-sorting by
// value alone makes the comparison independent of local index assignment.
func retainedDists(row []rspace.Neighbor) []float64 {
	ds := make([]float64, len(row))
	for i, n := range row {
		ds[i] = n.D
	}
	sort.Float64s(ds)
	return ds
}

// lookupDc mirrors the sparse symmetric lookup: Dc(i,j) is known if either
// row retained the other as a neighbor.
func lookupDc(e *rspace.LengthEntry, i, j int) (float64, bool) {
	if i == j {
		return 0, true
	}
	for _, n := range e.TopK[i] {
		if n.To == j {
			return n.D, true
		}
	}
	for _, n := range e.TopK[j] {
		if n.To == i {
			return n.D, true
		}
	}
	return 0, false
}
