// Command perfbench is the repository's end-to-end benchmark. It drives the
// real /v1 HTTP stack (api.Server.Routes) in-process over loopback, runs one
// named workload for a fixed time, checks every answer bit for bit against
// an in-process reference onex.Base, and prints one JSON result line.
//
//	perfbench --workload serve-mix --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of a run timed
// for --seconds; with --trace 1 a traced sequential replay of a fixed op
// prefix derives the per-layer metrics instead and writes its spans under
// --out. METRICS.md describes the workloads and every metric. The exit code is nonzero on any answer mismatch
// or when the run is invalid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: serve-mix, refine-heavy or remote-fanout")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the timed phase in seconds (--trace 0)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory the run writes its report and spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be ≥ 1")
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}

	var rep *report
	if o.trace {
		rep, err = runTraced(w, o)
	} else {
		rep, err = runTimed(w, o)
	}
	if err != nil {
		return err
	}
	rep.Stamp = newStamp(w, o, rep)
	if err := rep.write(o); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench: %s\n", rep.Stamp.line())
	for _, note := range rep.Notes {
		fmt.Fprintf(stdout, "perfbench: %s\n", note)
	}
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured (too few samples or no such work)", name)
		}
		res.Metrics[name] = m
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// report is everything a run found; the result line is cut from it and
// the whole of it is written to <out>/<workload>-seed<n>-trace<t>.json.
type report struct {
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds figures that are not benchmark metrics but qualify them
	// (generator lag, per-family sample counts, tracing overhead parts).
	Extra   map[string]float64 `json:"extra"`
	Lengths []int              `json:"-"`
	Notes   []string           `json:"notes,omitempty"`
}

func (r *report) write(o options) error {
	t := 0
	if o.trace {
		t = 1
	}
	path := fmt.Sprintf("%s/%s-seed%d-trace%d.json", o.out, o.workload, o.seed, t)
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// stamp identifies the machine, build and inputs a result came from, so
// results from different machines are never compared unknowingly.
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"goVersion"`
	Commit     string         `json:"commit"`
	Conns      int            `json:"connections"`
	Series     int            `json:"series"`
	SeriesLen  int            `json:"seriesLength"`
	Lengths    []int          `json:"lengths"`
	Shards     int            `json:"shards"`
	Workers    int            `json:"workers"`
	RatePerSec float64        `json:"ratePerSec,omitempty"`
	Ops        map[string]int `json:"ops"`
}

func newStamp(w *workload, o options, rep *report) stamp {
	s := stamp{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Conns: runtime.NumCPU(), Series: w.data.N, SeriesLen: w.data.Length,
		Shards: w.shards, Workers: w.workers, RatePerSec: w.rate, Ops: map[string]int{},
	}
	for _, f := range families {
		if n, ok := rep.Extra["ops."+f]; ok {
			s.Ops[f] = int(n)
		}
	}
	s.Lengths = rep.Lengths
	return s
}

func (s stamp) line() string {
	return fmt.Sprintf("workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s commit=%s conns=%d data=%dx%d lengths=%v shards=%d workers=%d ops=%v",
		s.Workload, s.Seed, s.NumCPU, s.GOMAXPROCS, s.GoVersion, s.Commit, s.Conns,
		s.Series, s.SeriesLen, s.Lengths, s.Shards, s.Workers, s.Ops)
}

// commit names the source revision the binary was built from, as run.sh
// passes it in BENCH_COMMIT: the git commit, or a digest of the Go
// sources where the checkout is not a repository.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
