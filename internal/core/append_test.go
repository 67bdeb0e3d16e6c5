package core_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/query"
	"onex/internal/shard"
	"onex/internal/ts"
)

// The maintenance contract of an engine built with a core.BuildConfig:
// normalization of streamed points, the amortized rebuild policy
// (core.RebuildDue) and snapshot round trips of the drift state.

func appendEngine(t *testing.T, cfg core.BuildConfig) (*ts.Dataset, *shard.Engine) {
	t.Helper()
	d := dataset.ItalyPower.Scaled(0.4).Generate(29)
	eng, err := shard.Build(d, cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, eng
}

func TestEngineAppendValidation(t *testing.T) {
	_, eng := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2})
	if _, err := eng.Append(0, nil); err == nil {
		t.Error("empty points: want error")
	}
	if _, err := eng.Append(-1, []float64{1}); err == nil {
		t.Error("negative series: want error")
	}
	if _, err := eng.Append(eng.NumSeries(), []float64{1}); err == nil {
		t.Error("out-of-range series: want error")
	}
	if _, err := eng.Append(0, []float64{math.NaN()}); err == nil {
		t.Error("NaN point: want error")
	}
	if _, err := eng.Append(0, []float64{math.Inf(1)}); err == nil {
		t.Error("Inf point: want error")
	}
	adapted, err := eng.WithThreshold(0.35)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adapted.Append(0, []float64{1}); err == nil {
		t.Error("append to adapted engine: want error")
	}
	_, perSeries := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2, Normalize: core.NormalizePerSeries})
	if _, err := perSeries.Append(0, []float64{1}); err == nil {
		t.Error("append to per-series normalized engine: want error")
	}
	// Extend holds the same finite-input boundary as Append and Build: a
	// NaN/Inf window would found a NaN-representative group and poison
	// every later query.
	if _, err := eng.Extend([]*ts.Series{{Values: []float64{1, math.NaN(), 2}}}); err == nil {
		t.Error("extend with NaN values: want error")
	}
	if _, err := eng.Extend([]*ts.Series{{Values: []float64{1, math.Inf(-1), 2}}}); err == nil {
		t.Error("extend with Inf values: want error")
	}
}

func TestEngineAppendImmutableReceiver(t *testing.T) {
	d, eng := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6, 10}, Seed: 2, RebuildDrift: -1})
	beforeLen := d.Series[0].Len()
	before := append([]float64(nil), eng.Window(0, 0, beforeLen)...)
	beforeTotal := eng.TotalSubseq()
	next, err := eng.Append(0, []float64{0.4, 0.5, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eng.Window(0, 0, beforeLen), before) {
		t.Error("Append mutated the receiver's dataset")
	}
	if eng.TotalSubseq() != beforeTotal {
		t.Error("Append mutated the receiver's subsequence count")
	}
	// Three new points open three windows per indexed length.
	if got, want := next.TotalSubseq(), beforeTotal+3*2; got != want {
		t.Errorf("grown base indexes %d subsequences, want %d", got, want)
	}
	if len(next.Window(0, beforeLen, 3)) != 3 {
		t.Error("grown series lacks the appended points")
	}
	if next.Drift() <= 0 {
		t.Error("grown base reports zero drift")
	}
}

func TestEngineAppendNormalizesIntoBaseSpace(t *testing.T) {
	// NormalizeDataset scales appended raw points with the original min/max;
	// appending a copy of an existing window must land byte-identical values.
	d := dataset.ItalyPower.Scaled(0.4).Generate(31)
	eng, err := shard.Build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2, RebuildDrift: -1}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]float64(nil), d.Series[1].Values[:4]...) // raw because Build normalizes a copy
	next, err := eng.Append(0, raw)
	if err != nil {
		t.Fatal(err)
	}
	got := next.Window(0, d.Series[0].Len(), 4)
	want := next.Window(1, 0, 4)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("appended points normalized to %v, want %v", got, want)
	}
}

func TestEngineAppendDriftRebuildMatchesFromScratch(t *testing.T) {
	// With a tiny drift threshold every Append re-runs the full build, which
	// must produce exactly the engine a from-scratch Build over the final
	// data yields (same seed, same normalized values).
	d := dataset.ItalyPower.Scaled(0.4).Generate(37)
	cfg := core.BuildConfig{ST: 0.2, Lengths: []int{6, 10}, Seed: 4, RebuildDrift: 1e-9}
	eng, err := shard.Build(d, cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Stay inside the original min/max so dataset-wide scaling is identical.
	points := append([]float64(nil), d.Series[2].Values[:5]...)
	grown, err := eng.Append(1, points)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Drift() != 0 {
		t.Errorf("rebuild did not reset drift: %v", grown.Drift())
	}

	final := d.Clone()
	final.Series[1].AppendPoints(points...)
	fresh, err := shard.Build(final, cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if grown.TotalGroups() != fresh.TotalGroups() || grown.STHalf() != fresh.STHalf() || grown.STFinal() != fresh.STFinal() {
		t.Fatalf("rebuilt base (%d groups, SP %v/%v) differs from from-scratch (%d, %v/%v)",
			grown.TotalGroups(), grown.STHalf(), grown.STFinal(), fresh.TotalGroups(), fresh.STHalf(), fresh.STFinal())
	}
	for _, l := range []int{6, 10} {
		gg, err := grown.SeasonalAll(l)
		if err != nil {
			t.Fatal(err)
		}
		fg, err := fresh.SeasonalAll(l)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gg, fg) {
			t.Fatalf("length %d: groups differ from from-scratch build", l)
		}
	}
	q := append([]float64(nil), fresh.Window(0, 2, 10)...)
	mg, err := grown.BestMatch(context.Background(), q, query.MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := fresh.BestMatch(context.Background(), q, query.MatchAny)
	if err != nil {
		t.Fatal(err)
	}
	if mg != mf {
		t.Errorf("rebuild-path match %+v differs from from-scratch %+v", mg, mf)
	}
}

func TestEngineAppendRebuildKeepsLengthSet(t *testing.T) {
	// Explicit Lengths {6, 60} over 24-point series resolve to {6} at build
	// time; a drift-triggered rebuild after the series grow past 60 must
	// keep indexing exactly {6} — the query surface never changes shape
	// because ingestion crossed a threshold.
	d := dataset.ItalyPower.Scaled(0.4).Generate(41) // 24-point series
	eng, err := shard.Build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6, 60}, Seed: 2, RebuildDrift: 1e-9}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Lengths(); len(got) != 1 || got[0] != 6 {
		t.Fatalf("build resolved lengths %v, want [6]", got)
	}
	pts := make([]float64, 50) // grows series 0 well past 60
	for i := range pts {
		pts[i] = d.Series[1].Values[i%d.Series[1].Len()]
	}
	grown, err := eng.Append(0, pts)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Drift() != 0 {
		t.Fatal("append did not take the rebuild branch")
	}
	if got := grown.Lengths(); len(got) != 1 || got[0] != 6 {
		t.Errorf("rebuild re-resolved lengths to %v, want the pinned [6]", got)
	}
}

func TestEngineAppendNeverWritesSharedArrays(t *testing.T) {
	// The copy-on-write clone shares untouched series' backing arrays;
	// chained appends must never write into the receiver's (or any
	// ancestor's) values.
	d, eng := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2, RebuildDrift: -1})
	lens := make([]int, d.N())
	for i, s := range d.Series {
		lens[i] = s.Len()
	}
	type generation struct {
		e      *shard.Engine
		lens   []int
		values [][]float64
	}
	record := func(e *shard.Engine) generation {
		g := generation{e: e, lens: append([]int(nil), lens...)}
		for i, n := range lens {
			g.values = append(g.values, append([]float64(nil), e.Window(i, 0, n)...))
		}
		return g
	}
	gens := []generation{record(eng)}
	cur := eng
	for i := 0; i < 3; i++ {
		next, err := cur.Append(0, []float64{0.4, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		lens[0] += 2
		gens = append(gens, record(next))
		cur = next
	}
	for gi, g := range gens {
		for si, n := range g.lens {
			if !reflect.DeepEqual(g.e.Window(si, 0, n), g.values[si]) {
				t.Fatalf("generation %d series %d mutated by a later append", gi, si)
			}
		}
	}
}

func TestEngineExtendParticipatesInRebuildPolicy(t *testing.T) {
	// Extend feeds the same drift counter as Append and must honor the same
	// bound: with a tiny threshold an extension takes the rebuild branch
	// (drift resets); with the policy disabled it stays incremental.
	v := make([]float64, 24)
	for i := range v {
		v[i] = math.Sin(float64(i) / 3)
	}
	_, strict := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2, RebuildDrift: 1e-9})
	ext, err := strict.Extend([]*ts.Series{{Values: v}})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Drift() != 0 {
		t.Errorf("extend did not take the rebuild branch (drift %v)", ext.Drift())
	}
	_, loose := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2, RebuildDrift: -1})
	ext, err = loose.Extend([]*ts.Series{{Values: v}})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Drift() <= 0 {
		t.Error("policy-disabled extend reports zero drift")
	}
}

func TestAppendPersistRoundTripKeepsDrift(t *testing.T) {
	_, eng := appendEngine(t, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 2, RebuildDrift: -1})
	grown, err := eng.Append(0, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := grown.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cfg.RebuildDrift != -1 {
		t.Errorf("RebuildDrift %v after round trip, want -1", snap.Cfg.RebuildDrift)
	}
	loaded, err := shard.Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Drift() != grown.Drift() {
		t.Errorf("drift %v after round trip, want %v", loaded.Drift(), grown.Drift())
	}
	// A further append on the loaded engine keeps working.
	if _, err := loaded.Append(0, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
}
