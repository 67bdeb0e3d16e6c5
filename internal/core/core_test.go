package core_test

import (
	"context"
	"math"
	"testing"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/query"
	"onex/internal/shard"
	"onex/internal/ts"
)

func fixture(t *testing.T) *ts.Dataset {
	t.Helper()
	return dataset.ItalyPower.Scaled(0.3).Generate(1)
}

func TestBuildValidation(t *testing.T) {
	d := fixture(t)
	cases := []struct {
		name string
		d    *ts.Dataset
		cfg  core.BuildConfig
	}{
		{"nil dataset", nil, core.BuildConfig{ST: 0.2}},
		{"empty dataset", &ts.Dataset{}, core.BuildConfig{ST: 0.2}},
		{"zero ST", d, core.BuildConfig{ST: 0}},
		{"bad normalize", d, core.BuildConfig{ST: 0.2, Normalize: core.NormalizeMode(9)}},
		{"NaN data", ts.NewDataset("t", [][]float64{{math.NaN()}}), core.BuildConfig{ST: 0.2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := core.Build(c.d, c.cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestBuildLeavesInputUntouched(t *testing.T) {
	d := fixture(t)
	orig := append([]float64(nil), d.Series[0].Values...)
	if _, err := core.Build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6}}); err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if d.Series[0].Values[i] != orig[i] {
			t.Fatal("core.Build mutated the input dataset")
		}
	}
}

func TestBuildNormalizeNoneIndexesRaw(t *testing.T) {
	d := ts.NewDataset("t", [][]float64{{0, 100, 0, 100, 0, 100}})
	eng, err := core.Build(d, core.BuildConfig{ST: 0.2, Lengths: []int{3}, Normalize: core.NormalizeNone})
	if err != nil {
		t.Fatal(err)
	}
	// Raw values survive: some representative has amplitude ~100.
	maxVal := 0.0
	for _, g := range eng.Base.Entry(3).Groups {
		for _, v := range g.Rep {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	if maxVal < 50 {
		t.Errorf("raw-space reps look normalized (max %v)", maxVal)
	}
}

func TestBuildAndQueryRoundTrip(t *testing.T) {
	d := fixture(t)
	eng, err := core.Build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6, 12}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if eng.BuildTime <= 0 {
		t.Error("BuildTime not recorded")
	}
	// The built index serves queries through the one engine.
	e, err := shard.Build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6, 12}, Seed: 3}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.TotalGroups() != eng.Base.TotalGroups() || e.TotalSubseq() != eng.Base.TotalSubseq {
		t.Errorf("engine indexes %d groups/%d subsequences, core.Build %d/%d",
			e.TotalGroups(), e.TotalSubseq(), eng.Base.TotalGroups(), eng.Base.TotalSubseq)
	}
	q := append([]float64(nil), eng.Base.Dataset.Series[0].Values[2:14]...)
	m, err := e.BestMatch(context.Background(), q, query.MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Found() || m.Length != 12 {
		t.Fatalf("match = %+v", m)
	}
}

func TestWithThreshold(t *testing.T) {
	d := fixture(t)
	eng, err := shard.Build(d, core.BuildConfig{ST: 0.2, Lengths: []int{6}, Seed: 3}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	adapted, err := eng.WithThreshold(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if adapted.ST() != 0.4 {
		t.Errorf("adapted ST = %v", adapted.ST())
	}
	if adapted.TotalGroups() > eng.TotalGroups() {
		t.Error("loosening gained groups")
	}
	if _, err := eng.WithThreshold(0); err == nil {
		t.Error("bad ST': want error")
	}
}
