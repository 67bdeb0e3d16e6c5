package bench

import (
	"context"
	"fmt"
	"time"

	"onex/internal/baseline"
	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/dist"
	"onex/internal/query"
	"onex/internal/shard"
	"onex/internal/stats"
)

// SimilarityResult aggregates one dataset's similarity-query experiment —
// the shared measurement behind Fig. 2, Fig. 7/8 ground truths and
// Tables 1–3.
type SimilarityResult struct {
	Dataset string
	// Mean per-query wall time in seconds, any-length search.
	TimeONEX, TimePAA, TimeStd float64
	// Mean per-query wall time, same-length search.
	TimeONEXSame, TimeTrillion float64
	// Accuracy (%) per the Sec. 6.2.1 metric against the exact any-length
	// solution…
	AccONEX, AccPAA, AccTrillionAny float64
	// …and against the exact same-length solution (Table 2).
	AccONEXSame, AccTrillionSame float64
	// ExactAny holds the per-query exact any-length distances (reused by
	// the trade-off experiments).
	ExactAny []float64
	// OnexBuild is the ONEX offline construction time (context for Fig. 5).
	OnexBuild time.Duration
}

// timeIt runs f repeats times and returns the mean seconds per run.
func timeIt(repeats int, f func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < repeats; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(repeats), nil
}

// solutionDist is the harness accuracy metric: the DTW between the query
// and the subsequence a system returned, per-point scaled (÷√max(m,n)) so
// errors stay on the normalized-value scale instead of being crushed by the
// Def. 6 ÷2n divisor. Every system is measured identically from the
// location it reports, never from its self-reported score.
func solutionDist(w *Workload, q []float64, seriesID, start, length int) float64 {
	v := w.Data.Series[seriesID].Values[start : start+length]
	return dist.DTW(q, v) / baseline.PerPointScale(len(q), length)
}

// similarity runs (or returns the cached) similarity suite for one dataset.
func (s *Session) similarity(name string) (*SimilarityResult, error) {
	if r, ok := s.simCache[name]; ok {
		return r, nil
	}
	sp, ok := dataset.ByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", errUnknownDataset, name)
	}
	s.cfg.progressf("  %s: building workload…", name)
	w, err := buildWorkload(sp, s.cfg)
	if err != nil {
		return nil, err
	}
	r, err := runSimilaritySuite(w, s.cfg)
	if err != nil {
		return nil, err
	}
	s.simCache[name] = r
	return r, nil
}

// runSimilaritySuite executes the Sec. 6.2.1 experiment on one workload:
// every system answers the same queries; times are averaged per query and
// accuracies measured against the brute-force exact solution.
func runSimilaritySuite(w *Workload, cfg Config) (*SimilarityResult, error) {
	// The workload data is already normalized; ONEX must index it as-is so
	// every system searches the identical value space.
	eng, err := shard.Build(w.Data, core.BuildConfig{
		ST:        cfg.ST,
		Lengths:   w.Lengths,
		Seed:      cfg.Seed,
		Normalize: core.NormalizeNone,
	}, 0, nil)
	if err != nil {
		return nil, err
	}
	bf, err := baseline.NewBruteForce(w.Data)
	if err != nil {
		return nil, err
	}
	tr, err := baseline.NewTrillion(w.Data, baseline.TrillionConfig{})
	if err != nil {
		return nil, err
	}
	paa, err := baseline.NewPAA(w.Data, w.Lengths, 0)
	if err != nil {
		return nil, err
	}

	res := &SimilarityResult{Dataset: w.Name, OnexBuild: eng.BuildTime()}
	var (
		exactAny, exactSame               []float64
		onexAny, onexSame, trill, paaD    []float64
		tOnex, tOnexS, tTrill, tPAA, tStd float64
	)
	cfg.progressf("  %s: %d queries × %d systems…", w.Name, len(w.Queries), 5)
	for qi, q := range w.Queries {
		// Ground truths (Standard DTW). The any-length scan is also the
		// timed "STANDARD-DTW" system of Fig. 2.
		var exAny baseline.Match
		sec, err := timeIt(1, func() error { // too slow to repeat
			var e error
			exAny, e = bf.BestMatchScale(q.Values, w.Lengths, baseline.PerPointScale)
			return e
		})
		if err != nil {
			return nil, fmt.Errorf("bruteforce query %d: %w", qi, err)
		}
		tStd += sec
		exSame, err := bf.BestMatchScale(q.Values, []int{len(q.Values)}, baseline.PerPointScale)
		if err != nil {
			return nil, err
		}
		exactAny = append(exactAny, exAny.Dist)
		exactSame = append(exactSame, exSame.Dist)

		// ONEX, any length.
		var m query.Match
		sec, err = timeIt(cfg.Repeats, func() error {
			var e error
			m, e = eng.BestMatch(context.Background(), q.Values, query.MatchAny)
			return e
		})
		if err != nil {
			return nil, fmt.Errorf("onex any query %d: %w", qi, err)
		}
		tOnex += sec
		onexAny = append(onexAny, solutionDist(w, q.Values, m.SeriesID, m.Start, m.Length))

		// ONEX-S, same length (Table 1/2's restricted mode).
		sec, err = timeIt(cfg.Repeats, func() error {
			var e error
			m, e = eng.BestMatch(context.Background(), q.Values, query.MatchExact)
			return e
		})
		if err != nil {
			return nil, fmt.Errorf("onex same query %d: %w", qi, err)
		}
		tOnexS += sec
		onexSame = append(onexSame, solutionDist(w, q.Values, m.SeriesID, m.Start, m.Length))

		// Trillion (same length by design).
		var bm baseline.Match
		sec, err = timeIt(cfg.Repeats, func() error {
			var e error
			bm, e = tr.BestMatch(q.Values)
			return e
		})
		if err != nil {
			return nil, fmt.Errorf("trillion query %d: %w", qi, err)
		}
		tTrill += sec
		trill = append(trill, solutionDist(w, q.Values, bm.SeriesID, bm.Start, bm.Length))

		// PAA (PDTW), any length over the same candidate pool.
		sec, err = timeIt(cfg.Repeats, func() error {
			var e error
			bm, e = paa.BestMatch(q.Values)
			return e
		})
		if err != nil {
			return nil, fmt.Errorf("paa query %d: %w", qi, err)
		}
		tPAA += sec
		paaD = append(paaD, solutionDist(w, q.Values, bm.SeriesID, bm.Start, bm.Length))
	}

	nq := float64(len(w.Queries))
	res.TimeONEX = tOnex / nq
	res.TimeONEXSame = tOnexS / nq
	res.TimeTrillion = tTrill / nq
	res.TimePAA = tPAA / nq
	res.TimeStd = tStd / nq
	res.ExactAny = exactAny

	if res.AccONEX, err = stats.Accuracy(onexAny, exactAny); err != nil {
		return nil, err
	}
	if res.AccPAA, err = stats.Accuracy(paaD, exactAny); err != nil {
		return nil, err
	}
	if res.AccTrillionAny, err = stats.Accuracy(trill, exactAny); err != nil {
		return nil, err
	}
	if res.AccONEXSame, err = stats.Accuracy(onexSame, exactSame); err != nil {
		return nil, err
	}
	if res.AccTrillionSame, err = stats.Accuracy(trill, exactSame); err != nil {
		return nil, err
	}
	return res, nil
}

// runFig2 regenerates Fig. 2: mean similarity-query time per system per
// dataset (2a: all four systems; 2b: the ONEX-vs-Trillion zoom).
func runFig2(s *Session) ([]Table, error) {
	names, err := s.selectedDatasets()
	if err != nil {
		return nil, err
	}
	a := Table{
		Title:  "Fig 2a: similarity query time (s), all systems",
		Header: []string{"Dataset", "ONEX", "TRILLION", "PAA", "STANDARD-DTW"},
	}
	b := Table{
		Title:  "Fig 2b: similarity query time (s), ONEX vs TRILLION",
		Header: []string{"Dataset", "ONEX", "TRILLION", "Trillion/ONEX"},
	}
	for _, n := range names {
		r, err := s.similarity(n)
		if err != nil {
			return nil, err
		}
		a.Rows = append(a.Rows, []string{
			n, secs(r.TimeONEX), secs(r.TimeTrillion), secs(r.TimePAA), secs(r.TimeStd),
		})
		b.Rows = append(b.Rows, []string{
			n, secs(r.TimeONEX), secs(r.TimeTrillion), ratio(r.TimeTrillion, r.TimeONEX),
		})
	}
	return []Table{a, b}, nil
}

// runTable1 regenerates Table 1: same-length query time, ONEX-S vs Trillion.
func runTable1(s *Session) ([]Table, error) {
	names, err := s.selectedDatasets()
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Table 1: time (s), similarity solution same length as query",
		Header: append([]string{"System"}, names...),
	}
	onexRow := []string{"ONEX-S"}
	trillRow := []string{"Trillion"}
	for _, n := range names {
		r, err := s.similarity(n)
		if err != nil {
			return nil, err
		}
		onexRow = append(onexRow, secs(r.TimeONEXSame))
		trillRow = append(trillRow, secs(r.TimeTrillion))
	}
	t.Rows = [][]string{onexRow, trillRow}
	return []Table{t}, nil
}

// runTable2 regenerates Table 2: same-length accuracy, ONEX-S vs Trillion.
func runTable2(s *Session) ([]Table, error) {
	names, err := s.selectedDatasets()
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Table 2: accuracy (%), similarity solution same length as query",
		Header: append([]string{"System"}, names...),
	}
	onexRow := []string{"ONEX-S"}
	trillRow := []string{"Trillion"}
	for _, n := range names {
		r, err := s.similarity(n)
		if err != nil {
			return nil, err
		}
		onexRow = append(onexRow, pct(r.AccONEXSame))
		trillRow = append(trillRow, pct(r.AccTrillionSame))
	}
	t.Rows = [][]string{onexRow, trillRow}
	return []Table{t}, nil
}

// runTable3 regenerates Table 3: any-length accuracy, ONEX vs Trillion vs PAA.
func runTable3(s *Session) ([]Table, error) {
	names, err := s.selectedDatasets()
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Table 3: accuracy (%), similarity solution for any length",
		Header: append([]string{"System"}, names...),
	}
	rows := [][]string{{"ONEX"}, {"Trillion"}, {"PAA"}}
	for _, n := range names {
		r, err := s.similarity(n)
		if err != nil {
			return nil, err
		}
		rows[0] = append(rows[0], pct(r.AccONEX))
		rows[1] = append(rows[1], pct(r.AccTrillionAny))
		rows[2] = append(rows[2], pct(r.AccPAA))
	}
	t.Rows = rows
	return []Table{t}, nil
}

func secs(v float64) string { return fmt.Sprintf("%.4g", v) }
func pct(v float64) string  { return fmt.Sprintf("%.2f", v) }
func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}
