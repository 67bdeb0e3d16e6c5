package bench

import (
	"context"
	"fmt"

	"onex/internal/core"
	"onex/internal/dataset"
	"onex/internal/query"
	"onex/internal/shard"
	"onex/internal/stats"
)

// tradeoffSweep is the ST range of Figs. 7–8.
var tradeoffSweep = []float64{0.1, 0.2, 0.3, 0.4}

// runFig7 regenerates Fig. 7: the accuracy-vs-time trade-off while varying
// ST on ItalyPower (7a) and ECG (7b).
func runFig7(s *Session) ([]Table, error) {
	return s.tradeoffTables("Fig 7", []string{"ItalyPower", "ECG"})
}

// runFig8 regenerates Fig. 8: the same trade-off on Face (8a) and Wafer (8b).
func runFig8(s *Session) ([]Table, error) {
	return s.tradeoffTables("Fig 8", []string{"Face", "Wafer"})
}

func (s *Session) tradeoffTables(figure string, names []string) ([]Table, error) {
	var out []Table
	sub := 'a'
	for _, name := range names {
		t, err := s.tradeoffOne(fmt.Sprintf("%s%c: accuracy vs running time varying ST (%s)", figure, sub, name), name)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		sub++
	}
	return out, nil
}

// tradeoffOne rebuilds the base per ST and measures accuracy and mean query
// time with the same workload and ground truth every time (the exact
// distances depend only on the data, not on ST).
func (s *Session) tradeoffOne(title, name string) (Table, error) {
	sp, ok := dataset.ByName(name)
	if !ok {
		return Table{}, fmt.Errorf("%w: %q", errUnknownDataset, name)
	}
	w, err := buildWorkload(sp, s.cfg)
	if err != nil {
		return Table{}, err
	}
	// Ground truth once (cached from the similarity suite if already run).
	sim, err := s.similarity(name)
	if err != nil {
		return Table{}, err
	}
	exact := sim.ExactAny

	t := Table{
		Title:  title,
		Header: []string{"ST", "Accuracy (%)", "Query time (s)", "Build time (s)"},
	}
	for _, st := range tradeoffSweep {
		s.cfg.progressf("  %s ST=%.1f tradeoff…", name, st)
		eng, err := shard.Build(w.Data, core.BuildConfig{
			ST:        st,
			Lengths:   w.Lengths,
			Seed:      s.cfg.Seed,
			Normalize: core.NormalizeNone,
		}, 0, nil)
		if err != nil {
			return Table{}, err
		}
		var dists []float64
		var total float64
		for qi, q := range w.Queries {
			var m query.Match
			sec, err := timeIt(s.cfg.Repeats, func() error {
				var e error
				m, e = eng.BestMatch(context.Background(), q.Values, query.MatchAny)
				return e
			})
			if err != nil {
				return Table{}, fmt.Errorf("%s ST=%v query %d: %w", name, st, qi, err)
			}
			total += sec
			dists = append(dists, solutionDist(w, q.Values, m.SeriesID, m.Start, m.Length))
		}
		acc, err := stats.Accuracy(dists, exact)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", st),
			pct(acc),
			secs(total / float64(len(w.Queries))),
			secs(eng.BuildTime().Seconds()),
		})
	}
	return t, nil
}
