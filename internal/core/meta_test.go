package core_test

import (
	"bytes"
	"testing"

	"onex/internal/core"
	"onex/internal/shard"
)

// TestMetaRoundTrip pins the identifying metadata a snapshot carries:
// name, series count, ST, the configured length restriction, the original
// build time and the Save timestamp.
func TestMetaRoundTrip(t *testing.T) {
	eng := buildPersistFixture(t)
	if !eng.SavedAt().IsZero() {
		t.Errorf("fresh engine SavedAt = %v, want zero", eng.SavedAt())
	}
	if eng.ST() != 0.2 || len(eng.Lengths()) != 2 {
		t.Errorf("engine config ST %v lengths %v", eng.ST(), eng.Lengths())
	}
	data := saved(t, eng)
	snap, err := core.DecodeSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Cfg.Lengths) != 2 {
		t.Errorf("loaded cfg.Lengths = %v, want the configured restriction", snap.Cfg.Lengths)
	}
	loaded, err := shard.Load(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SavedAt().IsZero() {
		t.Error("loaded engine SavedAt is zero, want the Save timestamp")
	}
	if loaded.BuildTime() != eng.BuildTime() {
		t.Errorf("loaded BuildTime = %v, want original %v", loaded.BuildTime(), eng.BuildTime())
	}
	if loaded.Name() != eng.Name() || loaded.NumSeries() != eng.NumSeries() || loaded.ST() != eng.ST() {
		t.Errorf("loaded identity %q/%d/%v, want %q/%d/%v",
			loaded.Name(), loaded.NumSeries(), loaded.ST(), eng.Name(), eng.NumSeries(), eng.ST())
	}
}

func TestBuildProgressThreaded(t *testing.T) {
	d := fixture(t)
	calls := 0
	_, err := core.Build(d, core.BuildConfig{
		ST: 0.2, Lengths: []int{6, 12}, Seed: 1,
		Progress: func(done, total int) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("Progress called %d times, want 2", calls)
	}
}
