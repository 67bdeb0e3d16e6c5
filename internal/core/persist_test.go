package core_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"onex/internal/core"
	"onex/internal/query"
	"onex/internal/shard"
)

func buildPersistFixture(t *testing.T) *shard.Engine {
	t.Helper()
	eng, err := shard.Build(fixture(t), core.BuildConfig{
		ST: 0.2, Lengths: []int{6, 12}, Seed: 3,
		Query: query.Options{CandidateLimit: 7, Patience: 16},
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func saved(t *testing.T, eng *shard.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	eng := buildPersistFixture(t)
	loaded, err := shard.Load(bytes.NewReader(saved(t, eng)), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Structure identical.
	if loaded.ST() != eng.ST() {
		t.Errorf("ST %v != %v", loaded.ST(), eng.ST())
	}
	if loaded.TotalGroups() != eng.TotalGroups() {
		t.Errorf("groups %d != %d", loaded.TotalGroups(), eng.TotalGroups())
	}
	if loaded.TotalSubseq() != eng.TotalSubseq() {
		t.Errorf("subseq %d != %d", loaded.TotalSubseq(), eng.TotalSubseq())
	}
	if loaded.STHalf() != eng.STHalf() || loaded.STFinal() != eng.STFinal() {
		t.Error("SP-Space thresholds differ after round trip")
	}
	// Queries agree bit-for-bit (the query options survived too).
	q := append([]float64(nil), eng.Window(1, 3, 12)...)
	m1, err := eng.BestMatch(context.Background(), q, query.MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := loaded.BestMatch(context.Background(), q, query.MatchExact)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("query answers differ after round trip: %+v vs %+v", m1, m2)
	}
	// Loaded engines remain extendable (grouped state survived).
	if _, err := loaded.Extend(fixture(t).Series[:1]); err != nil {
		t.Errorf("loaded engine not extendable: %v", err)
	}
}

func TestSaveAdaptedEngineRefused(t *testing.T) {
	eng := buildPersistFixture(t)
	adapted, err := eng.WithThreshold(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := adapted.Save(io.Discard); err == nil {
		t.Error("saving adapted engine should fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"wrong magic", []byte("NOTANONEXBASE___________")},
		{"truncated magic", []byte("ONEX")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := core.DecodeSnapshot(bytes.NewReader(c.data)); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	data := saved(t, buildPersistFixture(t))
	data[len("ONEXBASE")] = 99 // bump version byte
	_, err := core.DecodeSnapshot(bytes.NewReader(data))
	if !errors.Is(err, core.ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	data := saved(t, buildPersistFixture(t))
	// Flip a byte in the middle of the payload.
	data[len(data)/2] ^= 0xFF
	if _, err := shard.Load(bytes.NewReader(data), nil); err == nil {
		t.Fatal("corrupted stream loaded without error")
	}
	// Either the checksum catches it or a range check does; both are fine,
	// but silent success is not.
}

func TestLoadDetectsTruncation(t *testing.T) {
	data := saved(t, buildPersistFixture(t))
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 2} {
		if _, err := shard.Load(bytes.NewReader(data[:cut]), nil); err == nil {
			t.Errorf("truncation at %d loaded without error", cut)
		}
	}
}
