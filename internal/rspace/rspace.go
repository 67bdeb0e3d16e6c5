// Package rspace materializes the ONEX base of Sec. 4: the Representative
// Space (Def. 9) wrapped in the paper's two index layers —
//
//   - the Global Time Index (GTI): per length, the group vector, a sparse
//     top-k view of the pairwise Inter-Representative Distance matrix Dc
//     (Def. 10) — each representative's k nearest peers plus its full Dc
//     row sum — the representatives sorted by those row sums (the Sec. 5.3
//     median-sum search order), and the SThalf/STfinal merge thresholds of
//     the Similarity Parameter Space (Sec. 4.2);
//   - the Local Sequence Index (LSI): per group, members sorted by ED to the
//     representative (built by grouping.finalize), the representative
//     vector, and its LB_Keogh envelope for pruning (Sec. 4.3).
//
// # Index memory: the sparse Dc layout and why it is exact
//
// The paper's Table 4 charges O(g²) floats per length for the dense Dc
// matrix, and that term dominates GTI memory at loose thresholds (many
// groups). This package no longer keeps the dense matrix resident. Instead
// each LengthEntry stores, per representative, the TopK nearest other
// representatives (Neighbor lists, ascending by distance, deterministic
// index tie-break) and the exact full row sum — O(g·k) instead of O(g²).
//
// This is NOT an approximation, because no query-time consumer reads
// arbitrary Dc cells:
//
//   - the representative scans (query.LocalShard.ScanBest / ScanFixed)
//     walk MedianOrder, which is derived from the row sums alone;
//   - group mining and k-NN verification (query.Scatter) walk
//     the per-group ED-sorted member lists and envelopes, never Dc;
//   - the SP-Space guidance surface reads the precomputed STHalf/STFinal.
//
// The dense matrix is therefore only a build-time intermediate. New and
// Refresh materialize it transiently (one O(g²) scratch buffer, released
// before the entry is published), derive the exact sums, visit orders and
// merge thresholds from it, keep the k smallest entries per row, and drop
// the rest. Every derived quantity is bit-identical for every TopK setting
// — the knob (Options.TopK, default DefaultTopK) only trades resident
// memory against how much ED reuse a later incremental Refresh gets: a pair
// absent from both representatives' retained lists must be recomputed. The
// root-level sparse-vs-dense equivalence suite pins the bit-identity claim
// across parallelism and shard layouts.
package rspace

import (
	"errors"
	"math"
	"sort"

	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/ts"
)

// Base is the complete in-memory ONEX base for one dataset and one build
// threshold ST. It is immutable after New and safe for concurrent readers.
type Base struct {
	// Dataset is the (normalized) data the base was built over. Group
	// members reference windows of these series.
	Dataset *ts.Dataset
	// ST is the build similarity threshold in normalized-ED units.
	ST float64
	// Lengths lists the indexed subsequence lengths, ascending.
	Lengths []int
	// Entries holds the per-length GTI entry for each indexed length.
	Entries map[int]*LengthEntry
	// GlobalSTHalf and GlobalSTFinal are the dataset-wide critical
	// thresholds: the maxima of the per-length values (Fig. 1).
	GlobalSTHalf, GlobalSTFinal float64
	// TotalSubseq counts all indexed subsequences (Table 4).
	TotalSubseq int64
	// TopK records the Options.TopK the base was built with, so derived
	// bases (threshold adaptation) inherit the same retention policy.
	TopK int
}

// Neighbor is one retained cell of a representative's Dc row: the peer
// group's index within the same LengthEntry and the Inter-Representative
// Distance to it (normalized ED, Def. 10).
type Neighbor struct {
	To int
	D  float64
}

// LengthEntry is one GTI slot: everything the query processor needs for a
// specific subsequence length.
type LengthEntry struct {
	Length int
	// Groups are the ONEX similarity groups of this length; Groups[k].ID==k.
	Groups []*grouping.Group
	// TopK[k] lists representative k's nearest peers by Dc (Def. 10),
	// ascending by distance with ties broken by peer index — the sparse
	// resident view of the Dc matrix (min(TopK option, g−1) entries per
	// row; see the package docs for the exactness argument).
	TopK [][]Neighbor
	// Sums[k] is the exact ΣₗDc[k][l] over the FULL row (not just the
	// retained neighbors); SumOrder lists group indices sorted ascending by
	// Sums — the array S_i(k, sum_k) of Sec. 4.3.
	Sums     []float64
	SumOrder []int
	// MedianOrder is SumOrder re-traversed from the median outward
	// (median, median−1, median+1, …) — the Sec. 5.3 representative visit
	// order, precomputed since it is static per entry.
	MedianOrder []int
	// STHalf and STFinal are this length's local critical thresholds: the
	// smallest ST′ at which half of (respectively all) groups have merged.
	STHalf, STFinal float64
	// Envelopes[k] is the LB_Keogh envelope around representative k.
	Envelopes []Envelope
}

// Envelope is an LB_Keogh upper/lower envelope pair around a representative.
type Envelope struct {
	Upper, Lower []float64
}

// DefaultTopK is the Dc neighbor-list width used when Options.TopK is 0.
// Entries with g ≤ DefaultTopK+1 groups retain their full rows (so small
// bases are byte-for-byte the dense layout), while large entries shrink
// from O(g²) to O(g·k); 32 also keeps incremental Refresh's ED reuse full
// for the common small-g lengths.
const DefaultTopK = 32

// Options configures base materialization.
type Options struct {
	// EnvelopeRadius returns the LB_Keogh radius for a given length.
	// nil means full radius (admissible for the paper's unconstrained DTW).
	EnvelopeRadius func(length int) int
	// TopK bounds how many nearest Dc entries each representative retains
	// (per row). 0 selects DefaultTopK; negative retains every neighbor
	// (the dense-equivalent layout). Query answers are bit-identical at
	// every setting — see the package docs — so this is purely a resident-
	// memory / refresh-reuse knob.
	TopK int
}

// retain resolves the Options.TopK knob against a row of g groups.
func retain(topK, g int) int {
	if topK == 0 {
		topK = DefaultTopK
	}
	if topK < 0 || topK > g-1 {
		topK = g - 1
	}
	if topK < 0 {
		topK = 0
	}
	return topK
}

// New wraps a grouping result with the GTI/LSI index layers.
func New(d *ts.Dataset, gr *grouping.Result, opts Options) (*Base, error) {
	if d == nil || gr == nil {
		return nil, errors.New("rspace: nil dataset or grouping result")
	}
	radius := opts.EnvelopeRadius
	if radius == nil {
		radius = func(length int) int { return length }
	}
	b := &Base{
		Dataset:     d,
		ST:          gr.ST,
		Lengths:     append([]int(nil), gr.Lengths...),
		Entries:     make(map[int]*LengthEntry, len(gr.Lengths)),
		TotalSubseq: gr.TotalSubseq,
		TopK:        opts.TopK,
	}
	for _, l := range gr.Lengths {
		entry := newLengthEntry(gr.ByLength[l], gr.ST, radius(l), opts.TopK)
		b.Entries[l] = entry
		if entry.STHalf > b.GlobalSTHalf {
			b.GlobalSTHalf = entry.STHalf
		}
		if entry.STFinal > b.GlobalSTFinal {
			b.GlobalSTFinal = entry.STFinal
		}
	}
	return b, nil
}

// Refresh wraps an incrementally-maintained grouping result, reusing the
// previous Base's per-length index work for everything the maintenance step
// did not touch: a Dc value between two unchanged groups is copied whenever
// either group's retained neighbor list still holds it (they were computed
// from byte-identical representatives), and the envelopes of unchanged
// representatives are carried over wholesale. Pairs the sparse lists
// dropped — and every pair involving a touched or new group — recompute.
// The result is bit-identical to New(d, gr, opts): recomputing an ED
// between immutable representatives reproduces the exact bits reuse would
// have copied, so Refresh is purely a cost optimization and the TopK knob
// only changes how much of it is realized. prev must have been built with
// the same Options; a nil prev or delta falls back to New.
func Refresh(d *ts.Dataset, gr *grouping.Result, opts Options, prev *Base, delta *grouping.Delta) (*Base, error) {
	if prev == nil || delta == nil {
		return New(d, gr, opts)
	}
	if d == nil || gr == nil {
		return nil, errors.New("rspace: nil dataset or grouping result")
	}
	radius := opts.EnvelopeRadius
	if radius == nil {
		radius = func(length int) int { return length }
	}
	b := &Base{
		Dataset:     d,
		ST:          gr.ST,
		Lengths:     append([]int(nil), gr.Lengths...),
		Entries:     make(map[int]*LengthEntry, len(gr.Lengths)),
		TotalSubseq: gr.TotalSubseq,
		TopK:        opts.TopK,
	}
	for _, l := range gr.Lengths {
		var entry *LengthEntry
		prevEntry := prev.Entries[l]
		prevGroups, known := delta.PrevGroups[l]
		if prevEntry == nil || !known {
			entry = newLengthEntry(gr.ByLength[l], gr.ST, radius(l), opts.TopK)
		} else {
			entry = refreshLengthEntry(gr.ByLength[l], gr.ST, radius(l), opts.TopK,
				prevEntry, prevGroups, delta.Touched[l])
		}
		b.Entries[l] = entry
		if entry.STHalf > b.GlobalSTHalf {
			b.GlobalSTHalf = entry.STHalf
		}
		if entry.STFinal > b.GlobalSTFinal {
			b.GlobalSTFinal = entry.STFinal
		}
	}
	return b, nil
}

// denseDc is the transient build-time Dc matrix: a flat row-major g×g
// symmetric buffer that exists only inside newLengthEntry /
// refreshLengthEntry and is garbage the moment finishEntry returns. Keeping
// it flat (one allocation) also makes the O(g²) scratch cheap to allocate
// and release per length.
type denseDc struct {
	g int
	v []float64
}

func newDenseDc(g int) denseDc {
	return denseDc{g: g, v: make([]float64, g*g)}
}

func (m denseDc) at(k, l int) float64 { return m.v[k*m.g+l] }

func (m denseDc) set(k, l int, d float64) {
	m.v[k*m.g+l] = d
	m.v[l*m.g+k] = d
}

func newLengthEntry(lg *grouping.LengthGroups, st float64, envRadius, topK int) *LengthEntry {
	g := len(lg.Groups)
	e := &LengthEntry{
		Length:    lg.Length,
		Groups:    lg.Groups,
		Sums:      make([]float64, g),
		SumOrder:  make([]int, g),
		Envelopes: make([]Envelope, g),
	}
	invSqrtL := 1 / math.Sqrt(float64(lg.Length))
	dc := newDenseDc(g)
	for k := 0; k < g; k++ {
		for l := k + 1; l < g; l++ {
			dc.set(k, l, dist.ED(lg.Groups[k].Rep, lg.Groups[l].Rep)*invSqrtL)
		}
	}
	for k, grp := range lg.Groups {
		u, l := dist.Envelope(grp.Rep, envRadius, nil, nil)
		e.Envelopes[k] = Envelope{Upper: u, Lower: l}
	}
	finishEntry(e, st, dc, topK)
	return e
}

// dcAt looks a Dc cell up in the sparse resident layout: k's retained
// neighbor list, then l's (the symmetric value was stored from the same
// float, so either hit returns identical bits). The second return reports
// whether the pair survived the top-k cut.
func (e *LengthEntry) dcAt(k, l int) (float64, bool) {
	for _, nb := range e.TopK[k] {
		if nb.To == l {
			return nb.D, true
		}
	}
	for _, nb := range e.TopK[l] {
		if nb.To == k {
			return nb.D, true
		}
	}
	return 0, false
}

// refreshLengthEntry derives one length's entry from its previous
// incarnation after an incremental maintenance step: Dc values between two
// unchanged groups are copied when either group's retained neighbor list
// still holds them, envelopes of unchanged groups are reused, and distance
// computations run for pairs involving a touched or new group plus the
// clean pairs the sparse layout dropped. With full retention (TopK < 0, or
// g−1 ≤ k) this is the classic O(changed·g·L + g²) refresh; narrower lists
// trade some of that reuse for resident memory, never exactness.
func refreshLengthEntry(lg *grouping.LengthGroups, st float64, envRadius, topK int,
	prev *LengthEntry, prevGroups int, touched []int) *LengthEntry {

	g := len(lg.Groups)
	dirty := make([]bool, g)
	for k := prevGroups; k < g; k++ {
		dirty[k] = true // new group
	}
	for _, k := range touched {
		dirty[k] = true // representative moved
	}
	e := &LengthEntry{
		Length:    lg.Length,
		Groups:    lg.Groups,
		Sums:      make([]float64, g),
		SumOrder:  make([]int, g),
		Envelopes: make([]Envelope, g),
	}
	invSqrtL := 1 / math.Sqrt(float64(lg.Length))
	dc := newDenseDc(g)
	for k := 0; k < g; k++ {
		for l := k + 1; l < g; l++ {
			var d float64
			ok := false
			if !dirty[k] && !dirty[l] && k < prevGroups && l < prevGroups {
				d, ok = prev.dcAt(k, l)
			}
			if !ok {
				d = dist.ED(lg.Groups[k].Rep, lg.Groups[l].Rep) * invSqrtL
			}
			dc.set(k, l, d)
		}
	}
	for k, grp := range lg.Groups {
		if !dirty[k] {
			// The previous envelope was computed from this exact (immutable)
			// representative; sharing the slices is safe.
			e.Envelopes[k] = prev.Envelopes[k]
			continue
		}
		u, l := dist.Envelope(grp.Rep, envRadius, nil, nil)
		e.Envelopes[k] = Envelope{Upper: u, Lower: l}
	}
	finishEntry(e, st, dc, topK)
	return e
}

// finishEntry derives the Dc-dependent state shared by the full and
// incremental builders from the transient dense matrix: exact row sums, the
// sum-sorted and median-expanded visit orders, the SP-Space merge
// thresholds, and the retained top-k neighbor lists. After it returns the
// dense buffer is unreferenced.
func finishEntry(e *LengthEntry, st float64, dc denseDc, topK int) {
	g := len(e.Groups)
	for k := 0; k < g; k++ {
		var sum float64
		for l := 0; l < g; l++ {
			sum += dc.at(k, l)
		}
		e.Sums[k] = sum
		e.SumOrder[k] = k
	}
	sort.Slice(e.SumOrder, func(a, b int) bool {
		return e.Sums[e.SumOrder[a]] < e.Sums[e.SumOrder[b]]
	})
	e.MedianOrder = medianExpand(e.SumOrder)
	e.STHalf, e.STFinal = mergeThresholds(g, dc.at, st)

	keep := retain(topK, g)
	e.TopK = make([][]Neighbor, g)
	if keep == 0 {
		return
	}
	order := make([]int, 0, g-1)
	for k := 0; k < g; k++ {
		order = order[:0]
		for l := 0; l < g; l++ {
			if l != k {
				order = append(order, l)
			}
		}
		row := k * g
		sort.Slice(order, func(a, b int) bool {
			da, db := dc.v[row+order[a]], dc.v[row+order[b]]
			if da != db {
				return da < db
			}
			return order[a] < order[b]
		})
		list := make([]Neighbor, keep)
		for i := 0; i < keep; i++ {
			list[i] = Neighbor{To: order[i], D: dc.v[row+order[i]]}
		}
		e.TopK[k] = list
	}
}

// medianExpand reorders sum-sorted indices to start at the median and
// alternate left/right (Sec. 5.3's median-representative strategy).
func medianExpand(sumOrder []int) []int {
	n := len(sumOrder)
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	mid := n / 2
	out = append(out, sumOrder[mid])
	for step := 1; len(out) < n; step++ {
		if l := mid - step; l >= 0 {
			out = append(out, sumOrder[l])
		}
		if r := mid + step; r < n {
			out = append(out, sumOrder[r])
		}
	}
	return out
}

// mergeThresholds simulates the Sec. 4.2 merge process: groups k and l merge
// once ST′ ≥ ST + Dc(k,l). The critical values are minimum-spanning-tree
// edge weights plus ST: processing MST edges in increasing weight order, the
// number of surviving groups first reaches ⌈g/2⌉ (STHalf) after g−⌈g/2⌉
// merges and 1 (STFinal) at the heaviest MST edge. Prim's algorithm over
// the at(k,l) oracle needs O(g) working memory and at most g²/2 oracle
// calls — and since every MST of a graph has the same edge-weight multiset,
// the result is independent of tie-breaking and of whether the oracle is a
// dense matrix or on-demand distance evaluation (MergeThresholdsFor).
func mergeThresholds(g int, at func(k, l int) float64, st float64) (stHalf, stFinal float64) {
	if g <= 1 {
		return st, st
	}
	w := mstWeights(g, at)
	sort.Float64s(w)
	halfTarget := (g + 1) / 2
	stHalf = st + w[g-halfTarget-1]
	stFinal = st + w[len(w)-1]
	return stHalf, stFinal
}

// mstWeights returns the g−1 minimum-spanning-tree edge weights of the
// complete graph over vertices 0..g−1 with edge weights at(k,l), via Prim's
// algorithm (O(g²) oracle calls, O(g) memory).
func mstWeights(g int, at func(k, l int) float64) []float64 {
	inTree := make([]bool, g)
	best := make([]float64, g)
	for i := range best {
		best[i] = math.Inf(1)
	}
	best[0] = 0
	weights := make([]float64, 0, g-1)
	for it := 0; it < g; it++ {
		u := -1
		for v := 0; v < g; v++ {
			if !inTree[v] && (u < 0 || best[v] < best[u]) {
				u = v
			}
		}
		inTree[u] = true
		if it > 0 {
			weights = append(weights, best[u])
		}
		for v := 0; v < g; v++ {
			if !inTree[v] {
				if d := at(u, v); d < best[v] {
					best[v] = d
				}
			}
		}
	}
	return weights
}

// MergeThresholdsFor computes one length's SP-Space critical values directly
// from a group slice, evaluating Inter-Representative Distances on demand —
// O(g) working memory, no materialized matrix. The distances use the exact
// expression the index builders use, so the result is bit-identical to the
// STHalf/STFinal a Base built over the same groups would report. The
// sharded engine uses this to serve the GLOBAL grouping's guidance surface
// without ever holding the global O(g²) matrix.
func MergeThresholdsFor(groups []*grouping.Group, length int, st float64) (stHalf, stFinal float64) {
	g := len(groups)
	if g <= 1 {
		return st, st
	}
	invSqrtL := 1 / math.Sqrt(float64(length))
	return mergeThresholds(g, func(k, l int) float64 {
		return dist.ED(groups[k].Rep, groups[l].Rep) * invSqrtL
	}, st)
}

// Entry returns the GTI entry for a length, or nil if the length is not
// indexed — the constant-time getgroups(L) of Algorithm 2.
func (b *Base) Entry(length int) *LengthEntry {
	return b.Entries[length]
}

// TotalGroups returns the total representative count across lengths
// (Fig. 6 / Table 4).
func (b *Base) TotalGroups() int {
	total := 0
	for _, e := range b.Entries {
		total += len(e.Groups)
	}
	return total
}

// SizeBytes estimates the resident size of the index structures, mirroring
// the paper's Table 4 accounting with the sparse Dc layout: GTI (group
// identifier vector, retained neighbor lists, row sums, visit orders,
// thresholds) plus LSI (member identifiers with their EDs, representative
// vectors, envelopes). The neighbor lists are counted at their actual
// lengths — O(g·k), no longer the dense g² term.
func (b *Base) SizeBytes() int64 {
	const (
		intSize   = 8
		floatSize = 8
	)
	var total int64
	for _, e := range b.Entries {
		g := int64(len(e.Groups))
		total += g * intSize // group identifier vector
		for _, nbs := range e.TopK {
			total += int64(len(nbs)) * (intSize + floatSize) // sparse Dc rows
		}
		total += g * floatSize   // row sums
		total += 2 * g * intSize // sum-sorted + median-expanded visit orders
		total += 2 * floatSize   // STHalf, STFinal
		for k, grp := range e.Groups {
			total += int64(grp.Count()) * (2*intSize + floatSize) // member ids + ED
			total += int64(len(grp.Rep)) * floatSize              // representative
			total += int64(len(e.Envelopes[k].Upper)+len(e.Envelopes[k].Lower)) * floatSize
		}
	}
	return total
}

// MemberValues returns the raw window of member m of group g.
func (b *Base) MemberValues(g *grouping.Group, m grouping.Member) []float64 {
	return b.Dataset.Series[m.SeriesIdx].Values[m.Start : m.Start+g.Length]
}

// Degree labels a similarity threshold per the Sec. 4.2 scale:
// Strict below GlobalSTHalf, Medium between the two critical values,
// Loose at or above GlobalSTFinal.
type Degree int

// Similarity degrees (Sec. 4.2).
const (
	Strict Degree = iota
	Medium
	Loose
)

// String implements fmt.Stringer with the paper's S/M/L letters.
func (d Degree) String() string {
	switch d {
	case Strict:
		return "S"
	case Medium:
		return "M"
	case Loose:
		return "L"
	default:
		return "?"
	}
}

// DegreeOf classifies a threshold against the base's global critical values.
func (b *Base) DegreeOf(st float64) Degree {
	switch {
	case st < b.GlobalSTHalf:
		return Strict
	case st < b.GlobalSTFinal:
		return Medium
	default:
		return Loose
	}
}

// Recommend returns the threshold range for a similarity degree (query
// class III, Sec. 5.1). length < 0 uses the global critical values;
// otherwise the length-local ones. The upper bound of Loose is reported as
// +Inf since any larger threshold behaves identically.
func (b *Base) Recommend(d Degree, length int) (lo, hi float64, err error) {
	half, final := b.GlobalSTHalf, b.GlobalSTFinal
	if length >= 0 {
		e := b.Entry(length)
		if e == nil {
			return 0, 0, errors.New("rspace: length not indexed")
		}
		half, final = e.STHalf, e.STFinal
	}
	switch d {
	case Strict:
		return 0, half, nil
	case Medium:
		return half, final, nil
	case Loose:
		return final, math.Inf(1), nil
	default:
		return 0, 0, errors.New("rspace: unknown similarity degree")
	}
}
