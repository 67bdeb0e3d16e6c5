package query

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/ts"
)

// AdaptThreshold implements Algorithm 2.C / Sec. 5.2: given a new similarity
// threshold ST′ it derives an adapted grouping from the precomputed global
// groups of dataset d without reclustering the raw data.
//
//   - ST′ == ST: the precomputed groups are returned as-is (a new Result
//     sharing the group objects).
//   - ST′ <  ST: each group is split by re-running the Algorithm 1 loop over
//     its own members at radius ST′/2 — similarity at ST implies the members
//     are candidates at ST′, so no answer outside the group is possible.
//   - ST′ >  ST: pairs of groups with ST′ − ST ≥ Dc are merged; after each
//     merge the new representative (count-weighted average) and its Dc row
//     are recomputed and the cascade repeats while the condition holds
//     (the paper picks a random qualifying pair; we pick the smallest-Dc
//     pair to make adaptation deterministic, which is one of the paper's
//     admissible choices).
//
// The result is a pure function of (d, gr, ST′) — the same at every shard
// layout — and leaves gr untouched; the caller derives the index layers
// over it like over any grouping. Its drift counter starts at zero.
func AdaptThreshold(d *ts.Dataset, gr *grouping.Result, stPrime float64) (*grouping.Result, error) {
	if stPrime <= 0 || math.IsNaN(stPrime) || math.IsInf(stPrime, 0) {
		return nil, fmt.Errorf("query: adapted threshold must be positive, got %v", stPrime)
	}
	if d == nil || gr == nil {
		return nil, fmt.Errorf("query: nil dataset or grouping")
	}
	adapted := &grouping.Result{
		ST:          stPrime,
		Lengths:     append([]int(nil), gr.Lengths...),
		ByLength:    make(map[int]*grouping.LengthGroups, len(gr.Lengths)),
		TotalSubseq: gr.TotalSubseq,
	}
	for _, l := range gr.Lengths {
		src := gr.ByLength[l]
		var lg *grouping.LengthGroups
		switch {
		case stPrime == gr.ST:
			lg = &grouping.LengthGroups{Length: l, Groups: src.Groups}
		case stPrime < gr.ST:
			lg = splitLength(d, src, stPrime)
		default:
			lg = mergeLength(d, src, stPrime-gr.ST)
		}
		adapted.ByLength[l] = lg
	}
	return adapted, nil
}

// window returns member m's values in a group of the given length.
func window(d *ts.Dataset, m grouping.Member, length int) []float64 {
	return d.Series[m.SeriesIdx].Values[m.Start : m.Start+length]
}

// splitLength re-clusters each group's members at the smaller radius
// ST′/2 using the same nearest-representative pass as Algorithm 1. Member
// order is a seeded shuffle (seeded by length and group) so adaptation is
// deterministic.
func splitLength(d *ts.Dataset, e *grouping.LengthGroups, stPrime float64) *grouping.LengthGroups {
	lg := &grouping.LengthGroups{Length: e.Length}
	radiusSq := float64(e.Length) * stPrime * stPrime / 4
	invSqrtL := 1 / math.Sqrt(float64(e.Length))
	for gi, g := range e.Groups {
		members := append([]grouping.Member(nil), g.Members...)
		r := rand.New(rand.NewSource(int64(e.Length)*1_000_003 + int64(gi)))
		r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })

		type building struct {
			rep, sum []float64
			members  []grouping.Member
		}
		var subs []*building
		for _, m := range members {
			v := window(d, m, e.Length)
			bestSq := math.Inf(1)
			bestIdx := -1
			for si, sub := range subs {
				cutoff := radiusSq
				if bestSq < cutoff {
					cutoff = bestSq
				}
				sq := dist.SquaredEDEarlyAbandon(v, sub.rep, cutoff)
				if sq < bestSq {
					bestSq = sq
					bestIdx = si
				}
			}
			if bestIdx >= 0 && bestSq <= radiusSq {
				sub := subs[bestIdx]
				sub.members = append(sub.members, m)
				for i, x := range v {
					sub.sum[i] += x
				}
				inv := 1 / float64(len(sub.members))
				for i := range sub.rep {
					sub.rep[i] = sub.sum[i] * inv
				}
			} else {
				subs = append(subs, &building{
					rep:     append([]float64(nil), v...),
					sum:     append([]float64(nil), v...),
					members: []grouping.Member{m},
				})
			}
		}
		for _, sub := range subs {
			ng := &grouping.Group{
				Length:  e.Length,
				ID:      len(lg.Groups),
				Rep:     sub.rep,
				Members: sub.members,
			}
			for mi := range ng.Members {
				m := &ng.Members[mi]
				m.EDToRep = dist.ED(window(d, *m, e.Length), ng.Rep) * invSqrtL
			}
			sort.Slice(ng.Members, func(a, b int) bool {
				return ng.Members[a].EDToRep < ng.Members[b].EDToRep
			})
			lg.Groups = append(lg.Groups, ng)
		}
	}
	return lg
}

// mergeLength cascades pairwise merges while some pair satisfies
// ST′ − ST ≥ Dc (Algorithm 2.C case 3.2a). delta is ST′ − ST.
func mergeLength(d *ts.Dataset, e *grouping.LengthGroups, delta float64) *grouping.LengthGroups {
	type merged struct {
		rep, sum []float64
		count    int
		members  []grouping.Member
	}
	ms := make([]*merged, len(e.Groups))
	for i, g := range e.Groups {
		sum := make([]float64, len(g.Rep))
		for j, v := range g.Rep {
			sum[j] = v * float64(g.Count())
		}
		ms[i] = &merged{
			rep:     append([]float64(nil), g.Rep...),
			sum:     sum,
			count:   g.Count(),
			members: append([]grouping.Member(nil), g.Members...),
		}
	}
	invSqrtL := 1 / math.Sqrt(float64(e.Length))
	dcOf := func(a, b *merged) float64 {
		return dist.ED(a.rep, b.rep) * invSqrtL
	}

	// Cascade: repeatedly merge the closest qualifying pair. O(g³) worst
	// case with small constants; g per length is small by design (Fig. 6).
	for {
		bestA, bestB := -1, -1
		bestDc := math.Inf(1)
		for a := 0; a < len(ms); a++ {
			for b := a + 1; b < len(ms); b++ {
				if dc := dcOf(ms[a], ms[b]); dc <= delta && dc < bestDc {
					bestDc, bestA, bestB = dc, a, b
				}
			}
		}
		if bestA < 0 {
			break
		}
		a, b := ms[bestA], ms[bestB]
		for i := range a.sum {
			a.sum[i] += b.sum[i]
		}
		a.count += b.count
		a.members = append(a.members, b.members...)
		inv := 1 / float64(a.count)
		for i := range a.rep {
			a.rep[i] = a.sum[i] * inv
		}
		ms = append(ms[:bestB], ms[bestB+1:]...)
	}

	lg := &grouping.LengthGroups{Length: e.Length}
	for _, m := range ms {
		ng := &grouping.Group{
			Length:  e.Length,
			ID:      len(lg.Groups),
			Rep:     m.rep,
			Members: m.members,
		}
		for mi := range ng.Members {
			mm := &ng.Members[mi]
			mm.EDToRep = dist.ED(window(d, *mm, e.Length), ng.Rep) * invSqrtL
		}
		sort.Slice(ng.Members, func(x, y int) bool {
			return ng.Members[x].EDToRep < ng.Members[y].EDToRep
		})
		lg.Groups = append(lg.Groups, ng)
	}
	return lg
}
