package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// isCount reports whether a per-layer metric is counted by the program
// rather than timed: counts must repeat exactly across runs on a seed.
func isCount(name string) bool {
	return strings.HasPrefix(name, "query.") || strings.HasPrefix(name, "rpc.calls_per_") ||
		name == "core.groups" || name == "core.index_mb" || name == "hub.cache_hit_share"
}

// shortened returns a copy of the named workload whose traced run replays
// fewer ops, to keep the test quick.
func shortened(t *testing.T, name string, ops int) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.traceOps = ops
	return &c
}

func TestCountsRepeatOnSameSeed(t *testing.T) {
	for _, name := range []string{"serve-mix", "refine-heavy", "remote-fanout"} {
		t.Run(name, func(t *testing.T) {
			w := shortened(t, name, 60)
			o := options{workload: name, seed: 3, trace: true, out: t.TempDir()}
			a, err := runTraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runTraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for k, m := range a.Metrics {
				if !isCount(k) {
					continue
				}
				n++
				if got := b.Metrics[k].Value; got != m.Value {
					t.Errorf("%s: %v then %v on the same seed", k, m.Value, got)
				}
			}
			if n < 12 {
				t.Errorf("only %d count metrics compared", n)
			}
		})
	}
}

func TestSecondSeedRunsValid(t *testing.T) {
	for _, name := range []string{"serve-mix", "refine-heavy", "remote-fanout"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runTimed(w, options{workload: name, seed: 9, seconds: 1, out: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != 11 {
				t.Errorf("%d end-to-end metrics, want 11", len(rep.Metrics))
			}
		})
	}
}

func TestResultLineIsLast(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"--workload", "serve-mix", "--seed", "4", "--seconds", "1", "--out", t.TempDir()}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (%s)", err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Errorf("result %+v", res)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"--workload", "nope"}, &out, &errOut); err == nil {
		t.Error("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Errorf("printed %q for an unknown workload", out.String())
	}
}
