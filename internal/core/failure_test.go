package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"onex/internal/core"
	"onex/internal/shard"
	"onex/internal/ts"
)

// failWriter fails after limit bytes, exercising every write error path in
// the persistence encoder.
type failWriter struct {
	limit   int
	written int
}

var errDiskFull = errors.New("disk full")

func (f *failWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.limit {
		n := f.limit - f.written
		if n < 0 {
			n = 0
		}
		f.written = f.limit
		return n, errDiskFull
	}
	f.written += len(p)
	return len(p), nil
}

func TestSaveFailsCleanlyOnWriteErrors(t *testing.T) {
	eng := buildPersistFixture(t)
	var full bytes.Buffer
	if err := eng.Save(&full); err != nil {
		t.Fatal(err)
	}
	size := full.Len()
	// Fail at several byte offsets spanning header, dataset and groups.
	for _, limit := range []int{0, 4, 64, size / 4, size / 2, size - 8} {
		fw := &failWriter{limit: limit}
		if err := eng.Save(fw); err == nil {
			t.Errorf("Save with %d-byte budget succeeded (full size %d)", limit, size)
		}
	}
}

func TestExtendNormalizationPaths(t *testing.T) {
	raw := ts.NewDataset("t", [][]float64{
		{0, 10, 0, 10, 0, 10, 0, 10},
		{5, 15, 5, 15, 5, 15, 5, 15},
	})
	build := func(cfg core.BuildConfig) (*shard.Engine, error) { return shard.Build(raw, cfg, 0, nil) }
	// Dataset-level min-max: new series scaled with the ORIGINAL min/max.
	eng, err := build(core.BuildConfig{ST: 0.3, Lengths: []int{4}, Normalize: core.NormalizeDataset})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := eng.Extend([]*ts.Series{{Label: "new", Values: []float64{0, 30, 0, 30, 0, 30, 0, 30}}})
	if err != nil {
		t.Fatal(err)
	}
	got := ext.Window(2, 0, 8)
	// Original min=0 max=15 → 30 maps to 2.0 (outside [0,1], by design).
	if got[1] != 2 {
		t.Errorf("dataset-mode extend scaled 30 to %v, want 2", got[1])
	}

	// Per-series: each new series on its own scale.
	engPS, err := build(core.BuildConfig{ST: 0.3, Lengths: []int{4}, Normalize: core.NormalizePerSeries})
	if err != nil {
		t.Fatal(err)
	}
	extPS, err := engPS.Extend([]*ts.Series{{Values: []float64{100, 300, 100, 300, 100, 300, 100, 300}}})
	if err != nil {
		t.Fatal(err)
	}
	got = extPS.Window(2, 0, 8)
	if got[0] != 0 || got[1] != 1 {
		t.Errorf("per-series extend = %v, want [0 1 …]", got[:2])
	}
	// Constant new series cannot be per-series normalized.
	if _, err := engPS.Extend([]*ts.Series{{Values: []float64{7, 7, 7, 7}}}); err == nil {
		t.Error("constant series under per-series normalization: want error")
	}

	// NormalizeNone: raw append.
	engNone, err := build(core.BuildConfig{ST: 9, Lengths: []int{4}, Normalize: core.NormalizeNone})
	if err != nil {
		t.Fatal(err)
	}
	extNone, err := engNone.Extend([]*ts.Series{{Values: []float64{42, 42, 42, 43}}})
	if err != nil {
		t.Fatal(err)
	}
	if extNone.Window(2, 0, 1)[0] != 42 {
		t.Error("none-mode extend altered raw values")
	}
}

func TestExtendErrorPaths(t *testing.T) {
	eng, err := shard.Build(fixture(t), core.BuildConfig{ST: 0.2, Lengths: []int{6}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Extend(nil); err == nil {
		t.Error("nil series: want error")
	}
	if _, err := eng.Extend([]*ts.Series{nil}); err == nil {
		t.Error("nil series pointer: want error")
	}
	if _, err := eng.Extend([]*ts.Series{{Values: nil}}); err == nil {
		t.Error("empty series: want error")
	}
}

func TestBuildTimeFormatsInErrors(t *testing.T) {
	// Guard the error-message contract: invalid configs mention the value.
	_, err := core.Build(fixture(t), core.BuildConfig{ST: -3})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("-3")) {
		t.Errorf("error does not mention the offending ST: %v", err)
	}
	_, err = core.Build(fixture(t), core.BuildConfig{ST: 0.2, Normalize: core.NormalizeMode(7)})
	if err == nil {
		t.Error("bad mode: want error")
	}
	var _ = fmt.Sprintf // keep fmt imported for future assertions
}
