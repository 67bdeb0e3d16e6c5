package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"onex"
)

// The answer shapes of the /v1 endpoints, decoded to the fields the
// reference can reproduce. JSON carries float64 values exactly, so two
// shapes re-encode to the same bytes iff every float matches bit for bit.
type matchJSON struct {
	SeriesID int     `json:"seriesId"`
	Start    int     `json:"start"`
	Length   int     `json:"length"`
	Distance float64 `json:"distance"`
}

type knnJSON struct {
	Matches []matchJSON `json:"matches"`
}

type rangeHitJSON struct {
	matchJSON
	Guaranteed bool `json:"guaranteed"`
}

type rangeJSON struct {
	Count   int            `json:"count"`
	Results []rangeHitJSON `json:"results"`
}

// canonical orders the hits by position: range results are documented as
// unordered, and their order differs between shard layouts.
func (r *rangeJSON) canonical() *rangeJSON {
	sort.Slice(r.Results, func(i, j int) bool {
		a, b := r.Results[i], r.Results[j]
		if a.SeriesID != b.SeriesID {
			return a.SeriesID < b.SeriesID
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Length < b.Length
	})
	return r
}

type seasonalJSON struct {
	Count    int            `json:"count"`
	Patterns []onex.Pattern `json:"patterns"`
}

type batchJSON struct {
	Count   int `json:"count"`
	Errors  int `json:"errors"`
	Results []struct {
		Result matchJSON `json:"result"`
	} `json:"results"`
}

type jobJSON struct {
	State  string    `json:"state"`
	Result rangeJSON `json:"result"`
}

func toMatchJSON(m onex.Match) matchJSON {
	return matchJSON{SeriesID: m.SeriesID, Start: m.Start, Length: m.Length, Distance: m.Distance}
}

// decodeAnswer extracts the comparable answer from a response body.
func decodeAnswer(family string, body []byte) (any, error) {
	var v any
	switch family {
	case famMatch:
		v = &matchJSON{}
	case famKNN:
		v = &knnJSON{}
	case famRange:
		var r rangeJSON
		err := json.Unmarshal(body, &r)
		return r.canonical(), err
	case famSeasonal:
		v = &seasonalJSON{}
	case famBatch:
		var b batchJSON
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		ms := make([]matchJSON, len(b.Results))
		for i, r := range b.Results {
			ms[i] = r.Result
		}
		return ms, nil
	case famJob:
		var j jobJSON
		if err := json.Unmarshal(body, &j); err != nil {
			return nil, err
		}
		return j.Result.canonical(), nil
	default:
		return nil, fmt.Errorf("family %s has no answer", family)
	}
	err := json.Unmarshal(body, v)
	return v, err
}

// referenceAnswer computes what o must answer on base.
func referenceAnswer(w *workload, base *onex.Base, o op) (any, error) {
	switch o.family {
	case famMatch:
		m, err := base.BestMatch(o.query, onex.MatchAny)
		if err != nil {
			return nil, err
		}
		v := toMatchJSON(m)
		return &v, nil
	case famKNN:
		mode := onex.MatchAny
		if w.knnMode == "exact" {
			mode = onex.MatchExact
		}
		ms, err := base.BestKMatches(o.query, mode, w.knnK)
		if err != nil {
			return nil, err
		}
		out := &knnJSON{Matches: []matchJSON{}}
		for _, m := range ms {
			out.Matches = append(out.Matches, toMatchJSON(m))
		}
		return out, nil
	case famRange, famJob:
		rs, err := base.RangeSearch(o.query, o.length, w.radius)
		if err != nil {
			return nil, err
		}
		out := &rangeJSON{Count: len(rs), Results: []rangeHitJSON{}}
		for _, r := range rs {
			out.Results = append(out.Results, rangeHitJSON{toMatchJSON(r.Match), r.Guaranteed})
		}
		return out.canonical(), nil
	case famSeasonal:
		ps, err := base.Seasonal(o.series, o.length)
		if err != nil {
			return nil, err
		}
		return &seasonalJSON{Count: len(ps), Patterns: ps}, nil
	case famBatch:
		out := make([]matchJSON, len(o.batch))
		for i, q := range o.batch {
			m, err := base.BestMatch(q, onex.MatchAny)
			if err != nil {
				return nil, err
			}
			out[i] = toMatchJSON(m)
		}
		return out, nil
	}
	return nil, fmt.Errorf("family %s has no answer", o.family)
}

// sameAnswer compares two answers by their canonical JSON encoding.
func sameAnswer(a, b any) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// reference is an in-process onex.Base built from the same series and
// options as the served dataset, advanced by the same appends. gens[i] is
// the base after the first i successful appends.
type reference struct {
	w       *workload
	gens    []*onex.Base
	appends []op // successful appends in server order
	memoMu  sync.Mutex
	memo    map[[2]int]any
}

func newReference(w *workload, in *inputs, seed int64) (*reference, error) {
	series := make([]onex.Series, len(in.raw))
	for i, v := range in.raw {
		series[i] = onex.Series{Values: v}
	}
	// One worker per query: checks run several queries at once instead.
	opts := referenceOptions(w, in, seed)
	opts.Parallelism = 1
	base, err := onex.Build(datasetName, series, opts)
	if err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	return &reference{w: w, gens: []*onex.Base{base}, memo: map[[2]int]any{}}, nil
}

// referenceOptions are the build options the served dataset gets from its
// registration request.
func referenceOptions(w *workload, in *inputs, seed int64) onex.Options {
	return onex.Options{ST: w.st, Seed: seed, Lengths: in.lengths}
}

// advance builds generations up to gen from the append log and releases
// those below keep, which no later check needs.
func (r *reference) advance(gen, keep int) error {
	for len(r.gens) <= gen {
		cur := r.gens[len(r.gens)-1]
		a := r.appends[len(r.gens)-1]
		next, err := cur.Append(a.series, a.points...)
		if err != nil {
			return fmt.Errorf("reference append: %w", err)
		}
		r.gens = append(r.gens, next)
	}
	for g := 0; g < keep && g < len(r.gens); g++ {
		r.gens[g] = nil
	}
	return nil
}

// answer returns o's expected answer at generation gen; hot-pool shapes are
// computed once per generation.
func (r *reference) answer(gen int, o op) (any, error) {
	if o.hot == 0 {
		return referenceAnswer(r.w, r.gens[gen], o)
	}
	key := [2]int{gen, o.hot}
	r.memoMu.Lock()
	v, ok := r.memo[key]
	r.memoMu.Unlock()
	if ok {
		return v, nil
	}
	v, err := referenceAnswer(r.w, r.gens[gen], o)
	if err == nil {
		r.memoMu.Lock()
		r.memo[key] = v
		r.memoMu.Unlock()
	}
	return v, err
}

// check verifies one answered query against generations lo..hi (an answer
// may reflect any append it overlapped); advance must have built them.
func (r *reference) check(o op, body []byte, lo, hi int) error {
	got, err := decodeAnswer(o.family, body)
	if err != nil {
		return fmt.Errorf("op %s: decode %s answer: %w", o.id, o.family, err)
	}
	for g := lo; g <= hi; g++ {
		want, err := r.answer(g, o)
		if err != nil {
			return fmt.Errorf("op %s: reference: %w", o.id, err)
		}
		if sameAnswer(got, want) {
			return nil
		}
	}
	return fmt.Errorf("op %s: %s answer differs from the reference (generations %d..%d): %.300s",
		o.id, o.family, lo, hi, body)
}
