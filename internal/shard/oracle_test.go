package shard

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/query"
	"onex/internal/ts"
)

// oracle is the sequential reference of Algorithm 2 the equivalence suites
// compare every layout against: it reads only an engine's global dataset
// and grouping and computes every distance in full, with no index, no
// lower bound, no early abandoning, no rounds and no parallelism. Its
// decision rules are the engine's specification:
//
//   - Q1 scans every representative of a length and takes the exact
//     argmin, ties to the smaller global group id; the pivot walk mines
//     that group with the patience cut, and Match=Any stops at the first
//     length whose representative is within ST/2;
//   - k-NN keeps a sequential top-k list and verifies groups in (rep DTW,
//     global id) order while the rep is within the k-th distance plus the
//     group radius;
//   - range admits Lemma 2 prefixes of groups whose representative is
//     within ST/2 (radius ≥ ST) and verifies every other member.
type oracle struct {
	data *ts.Dataset
	gr   *grouping.Result
	opts query.Options
	ws   dist.Workspace
}

func newOracle(e *Engine) *oracle {
	return &oracle{data: e.data, gr: e.grouped, opts: e.cfg.Query}
}

func (o *oracle) window(m grouping.Member, length int) []float64 {
	return o.data.Series[m.SeriesIdx].Values[m.Start : m.Start+length]
}

func (o *oracle) lengthOrder(qlen int) []int {
	var out []int
	if _, ok := o.gr.ByLength[qlen]; ok {
		out = append(out, qlen)
	}
	for i := len(o.gr.Lengths) - 1; i >= 0; i-- {
		if l := o.gr.Lengths[i]; l < qlen {
			out = append(out, l)
		}
	}
	for _, l := range o.gr.Lengths {
		if l > qlen {
			out = append(out, l)
		}
	}
	return out
}

func (o *oracle) lengths(q []float64, mode query.MatchMode) ([]int, error) {
	if mode == query.MatchExact {
		if _, ok := o.gr.ByLength[len(q)]; !ok {
			return nil, fmt.Errorf("length %d not indexed", len(q))
		}
		return []int{len(q)}, nil
	}
	return o.lengthOrder(len(q)), nil
}

func (o *oracle) bestMatch(q []float64, mode query.MatchMode) (query.Match, error) {
	lengths, err := o.lengths(q, mode)
	if err != nil {
		return query.Match{}, err
	}
	best := query.Match{Dist: math.Inf(1)}
	for _, l := range lengths {
		groups := o.gr.ByLength[l].Groups
		bestID, bestRep := -1, math.Inf(1)
		for k, g := range groups {
			if d := o.ws.DTW(q, g.Rep); d < bestRep {
				bestID, bestRep = k, d
			}
		}
		if bestID < 0 {
			continue
		}
		div := dist.NormalizedDTWDivisor(len(q), l)
		o.mine(q, groups[bestID], bestID, bestRep/div, div, &best)
		if !o.opts.DisableEarlyStop && mode == query.MatchAny && bestRep/div <= o.gr.ST/2 {
			break
		}
	}
	if !best.Found() {
		return query.Match{}, errors.New("no candidate")
	}
	return best, nil
}

// mine is the Sec. 5.3 pivot walk: members in order of |ED − pivot| from
// the ED-sorted list, left first on equal gaps, cut after Patience
// consecutive non-improving members or CandidateLimit members.
func (o *oracle) mine(q []float64, g *grouping.Group, gid int, pivot, div float64, best *query.Match) {
	patience := o.opts.Patience
	if patience == 0 {
		patience = query.DefaultPatience
	}
	limit := o.opts.CandidateLimit
	if limit <= 0 || limit > len(g.Members) {
		limit = len(g.Members)
	}
	right := sort.Search(len(g.Members), func(i int) bool { return g.Members[i].EDToRep >= pivot })
	left := right - 1
	bestRaw := best.Dist * div
	since := 0
	for tested := 0; tested < limit && (patience <= 0 || since < patience); tested++ {
		var idx int
		switch {
		case left < 0 && right >= len(g.Members):
			return
		case left < 0:
			idx, right = right, right+1
		case right >= len(g.Members):
			idx, left = left, left-1
		case pivot-g.Members[left].EDToRep <= g.Members[right].EDToRep-pivot:
			idx, left = left, left-1
		default:
			idx, right = right, right+1
		}
		m := g.Members[idx]
		if d := o.ws.DTW(q, o.window(m, g.Length)); d < bestRaw {
			bestRaw, since = d, 0
			*best = query.Match{SeriesID: m.SeriesIdx, Start: m.Start, Length: g.Length,
				Dist: d / div, RawDTW: d, GroupID: gid}
		} else {
			since++
		}
	}
}

func (o *oracle) knn(q []float64, mode query.MatchMode, k int) ([]query.Match, error) {
	lengths, err := o.lengths(q, mode)
	if err != nil {
		return nil, err
	}
	var top []query.Match // ascending by Dist, at most k
	kth := func() float64 {
		if len(top) < k {
			return math.Inf(1)
		}
		return top[len(top)-1].Dist
	}
	push := func(m query.Match) {
		for _, x := range top {
			if x.SeriesID == m.SeriesID && x.Start == m.Start && x.Length == m.Length {
				return
			}
		}
		if m.Dist >= kth() {
			return
		}
		i := sort.Search(len(top), func(i int) bool { return top[i].Dist > m.Dist })
		top = append(top[:i], append([]query.Match{m}, top[i:]...)...)
		if len(top) > k {
			top = top[:k]
		}
	}
	for _, l := range lengths {
		groups := o.gr.ByLength[l].Groups
		div := dist.NormalizedDTWDivisor(len(q), l)
		radiusRaw := o.gr.ST / 2 * math.Sqrt(float64(l))
		cutoff := kth()*div + radiusRaw
		type cand struct {
			gid int
			d   float64
		}
		var cands []cand
		for gid, g := range groups {
			if d := o.ws.DTW(q, g.Rep); d < cutoff {
				cands = append(cands, cand{gid, d})
			}
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
		for _, c := range cands {
			if c.d > kth()*div+radiusRaw {
				break
			}
			g := groups[c.gid]
			for _, m := range g.Members {
				d := o.ws.DTW(q, o.window(m, l))
				push(query.Match{SeriesID: m.SeriesIdx, Start: m.Start, Length: l,
					Dist: d / div, RawDTW: d, GroupID: c.gid})
			}
		}
	}
	if len(top) == 0 {
		return nil, errors.New("no candidates")
	}
	return top, nil
}

func (o *oracle) rangeSearch(q []float64, length int, radius float64, exact bool) ([]query.RangeResult, error) {
	lg, ok := o.gr.ByLength[length]
	if !ok {
		return nil, fmt.Errorf("length %d not indexed", length)
	}
	div := dist.NormalizedDTWDivisor(len(q), length)
	st := o.gr.ST
	var out []query.RangeResult
	for gid, g := range lg.Groups {
		admitted := 0
		if radius >= st && o.ws.DTW(q, g.Rep)/div <= st/2 {
			for admitted < len(g.Members) && g.Members[admitted].EDToRep <= st/2 {
				admitted++
			}
		}
		for i, m := range g.Members {
			hit := query.RangeResult{
				Match: query.Match{SeriesID: m.SeriesIdx, Start: m.Start, Length: length,
					Dist: st, RawDTW: st * div, GroupID: gid},
				Guaranteed: i < admitted,
			}
			if !hit.Guaranteed || exact {
				d := o.ws.DTW(q, o.window(m, length))
				if d/div > radius {
					continue
				}
				hit.Dist, hit.RawDTW = d/div, d
			}
			out = append(out, hit)
		}
	}
	return out, nil
}
