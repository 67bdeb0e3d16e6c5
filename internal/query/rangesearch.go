package query

import (
	"fmt"
	"math"

	"onex/internal/dist"
	"onex/internal/parallel"
)

// RangeResult is one subsequence returned by a range search.
type RangeResult struct {
	Match
	// Guaranteed is true when the match was admitted through the Lemma 2
	// guarantee (its group representative was within ST/2 of the query)
	// without needing an individual verification. Under RangeSearch,
	// guaranteed results report the ST upper bound in Dist — NOT an exact
	// distance (sorting or re-thresholding on Dist is wrong for them);
	// RangeSearchExact computes their true DTW instead.
	Guaranteed bool
}

// rangeSearch answers a range query over the processor's base (a range
// query class the paper's related work highlights, Sec. 7): every
// subsequence of the given length whose normalized DTW (Def. 6) to q is
// within radius. This is where the paper's ED↔DTW triangle inequality pays
// off directly, in both directions:
//
//   - Admission (Lemma 2): when radius ≥ ST and DTW̄(q, R) ≤ ST/2, every
//     member of R's group is within ST ≤ radius — the whole group is
//     admitted with zero member DTW computations (Guaranteed=true).
//
//   - Pruning (the same path argument, reversed): for an optimal warping
//     path P of DTW(q, y′) — which is also a valid path of the q×R matrix,
//     R and y′ having equal length — Minkowski's inequality gives
//     DTW(q, R) ≤ DTW(q, y′) + √m·ED(R, y′), m = len(q), since a path
//     revisits any column at most m times. Therefore
//     DTW(q, y′) ≥ DTW(q, R) − √m·ED(R, y′): a group whose representative
//     is farther than rawRadius + √m·maxMemberED cannot contain a match and
//     is skipped without touching its members.
//
// Members of the remaining groups are verified individually with
// early-abandoning DTW and carry exact distances; wholesale-admitted
// members carry the ST upper bound in Dist (see RangeResult.Guaranteed)
// unless exact is set, which computes their true DTW and filters them
// against the radius like every other member. Hits carry global ids: series
// and gids map the base's local series and group indices to them. Work
// accumulates into the caller-owned tr; groups shard across up to workers
// goroutines, and the result (group order) and counters are identical at
// every worker count.
func (p *Processor) rangeSearch(workers int, q []float64, length int, radius float64,
	exact bool, series, gids []int, tr *Trace) ([]RangeHit, error) {

	if err := validateQuery(q); err != nil {
		return nil, err
	}
	if radius < 0 || math.IsNaN(radius) || math.IsInf(radius, 0) {
		return nil, fmt.Errorf("query: invalid range radius %v", radius)
	}
	e := p.base.Entry(length)
	if e == nil {
		return nil, fmt.Errorf("query: length %d not indexed", length)
	}
	divisor := dist.NormalizedDTWDivisor(len(q), length)
	sqrtM := math.Sqrt(float64(len(q)))
	sqrtL := math.Sqrt(float64(length))
	wholesale := radius >= p.base.ST

	// Each group's admission/verification depends only on the query and the
	// fixed radius — never on other groups — so the group loop shards across
	// the worker pool verbatim; per-group result slices are concatenated in
	// group order so the output is identical to the sequential scan (and so
	// are the per-group work counters).
	// searchGroup appends group k's hits to out.
	searchGroup := func(ws *dist.Workspace, k int, tr *Trace, out []RangeHit) []RangeHit {
		g := e.Groups[k]
		n := g.Count()
		if n == 0 {
			return out
		}
		// Widest member deviation in raw-ED units (LSI is sorted ascending).
		maxRawED := g.Members[n-1].EDToRep * sqrtL
		pruneCutoff := radius*divisor + sqrtM*maxRawED
		tr.RepsExamined++
		tr.DTWComputed++
		repRaw := ws.DTWEarlyAbandon(q, g.Rep, dist.Unconstrained, pruneCutoff)
		if math.IsInf(repRaw, 1) {
			return out // no member can reach the radius
		}

		verifyFrom := 0
		if wholesale && repRaw/divisor <= p.base.ST/2 {
			// Lemma 2 requires ED̄(member, R) ≤ ST/2; representatives drift
			// during construction, so admit exactly the sorted prefix that
			// satisfies the premise and verify any stragglers individually.
			for verifyFrom < n && g.Members[verifyFrom].EDToRep <= p.base.ST/2 {
				m := g.Members[verifyFrom]
				verifyFrom++
				// Reported distance: the Lemma 2 upper bound (exactly ST —
				// not round-tripped through the divisor), or in exact mode
				// the true DTW (the guarantee proves DTW̄ ≤ ST
				// mathematically, so no abandon can fire below the radius),
				// filtered like any verified member so the result set
				// matches a brute-force scan bit for bit.
				nd, d := p.base.ST, p.base.ST*divisor
				if exact {
					v := p.base.MemberValues(g, m)
					tr.MembersTested++
					tr.DTWComputed++
					d = ws.DTWEarlyAbandon(q, v, dist.Unconstrained, radius*divisor)
					nd = d / divisor
					if nd > radius {
						continue
					}
				}
				out = append(out, RangeHit{
					Series:     series[m.SeriesIdx],
					Start:      m.Start,
					Dist:       nd,
					RawDTW:     d,
					GroupID:    gids[k],
					Guaranteed: true,
				})
			}
		}

		for _, m := range g.Members[verifyFrom:] {
			v := p.base.MemberValues(g, m)
			tr.MembersTested++
			if dist.LBKim(q, v) > radius*divisor {
				tr.PrunedByKim++
				continue
			}
			tr.DTWComputed++
			d := ws.DTWEarlyAbandon(q, v, dist.Unconstrained, radius*divisor)
			if nd := d / divisor; nd <= radius {
				out = append(out, RangeHit{
					Series:  series[m.SeriesIdx],
					Start:   m.Start,
					Dist:    nd,
					RawDTW:  d,
					GroupID: gids[k],
				})
			}
		}
		return out
	}

	var out []RangeHit
	if workers <= 1 || len(e.Groups) < 4 {
		ws := p.pool.Get()
		for k := range e.Groups {
			out = searchGroup(ws, k, tr, out)
		}
		p.pool.Put(ws)
		return out, nil
	}
	perGroup := make([][]RangeHit, len(e.Groups))
	trs := make([]Trace, len(e.Groups))
	parallel.ForEach(workers, len(e.Groups), func(k int) {
		ws := p.pool.Get()
		defer p.pool.Put(ws)
		perGroup[k] = searchGroup(ws, k, &trs[k], nil)
	})
	total := 0
	for k, hits := range perGroup {
		tr.add(trs[k])
		total += len(hits)
	}
	out = make([]RangeHit, 0, total)
	for _, hits := range perGroup {
		out = append(out, hits...)
	}
	return out, nil
}
