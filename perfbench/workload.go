package main

import (
	"fmt"
	"math/rand"

	"onex/internal/dataset"
)

// Op families. Every family is a separate end-to-end latency class except
// batch, which only enters the mix percentiles.
const (
	famMatch    = "match"
	famKNN      = "knn"
	famRange    = "range"
	famSeasonal = "seasonal"
	famBatch    = "batch"
	famJob      = "job"
	famAppend   = "append"
)

// families lists every family in report order.
var families = []string{famMatch, famKNN, famRange, famSeasonal, famBatch, famJob, famAppend}

type share struct {
	family string
	weight int
}

// workload is one named traffic mix. Each is chosen so that a different
// group of modules does most of the work (see BENCHMARK.json "why").
type workload struct {
	name string
	data dataset.Spec
	// lengthCount is the "lengths" registration field: indexed lengths
	// spread evenly over [2, series length].
	lengthCount int
	// Query shapes use the indexed lengths within [minQueryLen,
	// maxQueryLen]: the shortest are trivial and a whole-series length
	// has one window per series.
	minQueryLen, maxQueryLen int
	st                       float64
	shards                   int
	// workers is the number of in-process shardrpc workers on loopback
	// serving the shards (0 keeps every shard inside the server).
	workers int
	// rate is the open-loop Poisson arrival rate in ops/s; 0 means one
	// closed-loop client.
	rate float64
	mix  []share
	// hotShare of query ops are redrawn with skew from a pool of hotPool
	// earlier shapes, so they repeat inside the hub's result cache.
	hotShare float64
	hotPool  int
	knnK     int
	knnMode  string
	radius   float64
	// appendPoints is how many raw points one append op carries.
	appendPoints int
	// traceOps is the op count of each sequential pass of the traced run.
	traceOps int
	// checkEvery > 1 checks only every checkEvery-th op of a timed run
	// (every op of a traced run is checked): the reference costs as much
	// as the engine work it checks, and the run must fit its time budget.
	checkEvery int
}

// workloads is the benchmark's fixed set; sizes are part of the benchmark
// definition, never measured at run time.
var workloads = []*workload{
	{
		// Engine work is ≤1 ms per op, so HTTP decode/encode, the hub's
		// cache/locks/swap and the job queue dominate. The only workload
		// with concurrency, cache reuse and writes beside reads. At 150
		// ops/s a 2-core machine stays well below saturation, so the
		// in-process generator sends on time and the tail percentiles are
		// not those of bursts of queueing.
		name:        "serve-mix",
		data:        dataset.ItalyPower,
		lengthCount: 6,
		minQueryLen: 6,
		maxQueryLen: 24,
		st:          0.2,
		shards:      1,
		rate:        150,
		mix: []share{
			{famMatch, 24}, {famKNN, 16}, {famRange, 16}, {famSeasonal, 10},
			{famBatch, 8}, {famJob, 8}, {famAppend, 2},
		},
		hotShare:     0.5,
		hotPool:      24,
		knnK:         3,
		knnMode:      "any",
		radius:       0.01,
		appendPoints: 1,
		traceOps:     1200,
	},
	{
		// Unique queries, half inside the data and half outside it (paper
		// §6.2.1), so the hub cache never hits: member refinement in query
		// and the DTW kernel in dist dominate, api and hub cost little.
		name:        "refine-heavy",
		data:        withN(dataset.ECG, 200),
		lengthCount: 4,
		minQueryLen: 16,
		maxQueryLen: 80,
		st:          0.2,
		shards:      1,
		mix: []share{
			{famMatch, 30}, {famKNN, 28}, {famRange, 28}, {famSeasonal, 5},
			{famJob, 4}, {famAppend, 5},
		},
		knnK:         5,
		knnMode:      "exact",
		radius:       0.002,
		appendPoints: 2,
		traceOps:     160,
		checkEvery:   4,
	},
	{
		// The refine-heavy engine with every scan round an RPC to one of
		// two shardrpc workers on loopback; appends re-ship shard state.
		name:        "remote-fanout",
		data:        withN(dataset.ECG, 96),
		lengthCount: 4,
		minQueryLen: 16,
		maxQueryLen: 80,
		st:          0.2,
		shards:      2,
		workers:     2,
		mix: []share{
			{famMatch, 58}, {famKNN, 16}, {famRange, 16}, {famSeasonal, 4},
			{famJob, 4}, {famAppend, 2},
		},
		knnK:         5,
		knnMode:      "exact",
		radius:       0.002,
		appendPoints: 2,
		traceOps:     120,
	},
}

func withN(sp dataset.Spec, n int) dataset.Spec {
	sp.N = n
	return sp
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs are the generated series a workload registers, plus the series
// out-of-data queries are cut from.
type inputs struct {
	raw     [][]float64
	extra   [][]float64
	lo, hi  float64
	lengths []int // indexed lengths, as the server reports them
}

// dataSeed generates every workload's registered series: the data is part
// of the workload's definition, so runs on different seeds measure the
// same index and differ only in the queries, appends and arrivals the
// seed draws.
const dataSeed = 20161

// makeInputs generates the registered series and the held-out series
// out-of-data queries and appended points are cut from.
func makeInputs(w *workload) *inputs {
	in := &inputs{}
	for _, s := range w.data.Generate(dataSeed).Series {
		in.raw = append(in.raw, s.Values)
	}
	held := w.data
	held.N = max(8, w.data.N/4)
	for _, s := range held.Generate(dataSeed + 1).Series {
		in.extra = append(in.extra, s.Values)
	}
	in.lo, in.hi = in.raw[0][0], in.raw[0][0]
	for _, s := range in.raw {
		for _, v := range s {
			in.lo = min(in.lo, v)
			in.hi = max(in.hi, v)
		}
	}
	return in
}

// op is one request of a workload.
type op struct {
	id     string
	family string
	query  []float64
	length int
	series int
	batch  [][]float64
	points []float64
	// hot is the op's index in the hot pool plus one (0 = unique shape).
	hot int
	// method, path and body are the encoded request.
	method, path string
	body         []byte
}

// shapesPerFamily is the size of each family's pool of query shapes. Jobs
// draw from a few shapes only, as there are few jobs in a run and their
// latency is meant to show the async path, not the spread of query costs.
// The counts are odd so that a family's median falls inside one shape's
// samples rather than between two shapes of different cost.
func shapesPerFamily(f string) int {
	if f == famJob {
		return 5
	}
	return 47
}

// shape is a query's position before per-op perturbation: a window of a
// registered or held-out series, or a (series, length) seasonal query.
type shape struct {
	heldOut     bool
	series, pos int
	length      int
}

// deck deals its cards in a fresh seed-shuffled order each cycle, so any
// run of a few cycles holds every card in its fixed proportion.
type deck[T any] struct {
	cards []T
	order []int
}

func (d *deck[T]) deal(rng *rand.Rand) T {
	if len(d.order) == 0 {
		d.order = rng.Perm(len(d.cards))
	}
	c := d.cards[d.order[0]]
	d.order = d.order[1:]
	return c
}

// opGen draws a workload's op sequence; the same seed yields the same
// sequence, whatever prefix of it a run gets through. The query shapes of
// each family are a fixed pool and the family mix a fixed deck, both
// dealt in seed-shuffled cycles: runs on different seeds see the same
// distribution of work, while the per-op perturbation keeps every query
// unique (so only the hot pool can hit the hub cache).
type opGen struct {
	w       *workload
	in      *inputs
	rng     *rand.Rand
	n       int
	prefix  string
	mix     deck[string]
	shapes  map[string]*deck[shape]
	hotPool []op
}

func newOpGen(w *workload, in *inputs, seed int64, prefix string) *opGen {
	g := &opGen{w: w, in: in, rng: rand.New(rand.NewSource(seed)), prefix: prefix,
		shapes: map[string]*deck[shape]{}}
	var qlens []int
	for _, l := range in.lengths {
		if l >= w.minQueryLen && l <= w.maxQueryLen {
			qlens = append(qlens, l)
		}
	}
	for _, s := range w.mix {
		for i := 0; i < s.weight; i++ {
			g.mix.cards = append(g.mix.cards, s.family)
		}
	}
	pools := rand.New(rand.NewSource(dataSeed))
	for _, f := range families {
		d := &deck[shape]{}
		for i := 0; i < shapesPerFamily(f); i++ {
			sh := shape{heldOut: i%2 == 1, length: qlens[i%len(qlens)]}
			src := in.raw
			if sh.heldOut {
				src = in.extra
			}
			sh.series = pools.Intn(len(src))
			sh.pos = pools.Intn(len(src[sh.series]) - sh.length + 1)
			d.cards = append(d.cards, sh)
		}
		g.shapes[f] = d
	}
	// The hot pool is part of the workload too: the same on every seed.
	seeded := g.rng
	g.rng = rand.New(rand.NewSource(dataSeed + 2))
	for i := 0; i < w.hotPool; i++ {
		o := g.fresh(g.queryFamily())
		o.hot = i + 1
		o.method, o.path, o.body = request(w, o)
		g.hotPool = append(g.hotPool, o)
	}
	g.rng = seeded
	return g
}

func (g *opGen) queryFamily() string {
	for {
		if f := g.mix.deal(g.rng); f != famAppend {
			return f
		}
	}
}

// next returns the sequence's next op.
func (g *opGen) next() op {
	f := g.mix.deal(g.rng)
	var o op
	if f != famAppend && len(g.hotPool) > 0 && g.rng.Float64() < g.w.hotShare {
		// Quadratic skew: low pool indexes repeat most.
		u := g.rng.Float64()
		o = g.hotPool[int(u*u*float64(len(g.hotPool)))]
	} else {
		o = g.fresh(f)
	}
	if o.method == "" {
		o.method, o.path, o.body = request(g.w, o)
	}
	o.id = fmt.Sprintf("%s-%d", g.prefix, g.n)
	g.n++
	return o
}

// queryOnly returns the next op that is not an append.
func (g *opGen) queryOnly() op {
	for {
		if o := g.next(); o.family != famAppend {
			return o
		}
	}
}

func (g *opGen) fresh(f string) op {
	o := op{family: f}
	switch f {
	case famMatch, famKNN, famRange, famJob:
		sh := g.shapes[f].deal(g.rng)
		o.length = sh.length
		o.query = g.window(sh)
	case famSeasonal:
		sh := g.shapes[f].deal(g.rng)
		o.length = sh.length
		o.series = sh.series % len(g.in.raw)
	case famBatch:
		for i := 0; i < 8; i++ {
			o.batch = append(o.batch, g.window(g.shapes[f].deal(g.rng)))
		}
	case famAppend:
		// An append's points are part of its shape: the seed only orders
		// the appends.
		sh := g.shapes[f].deal(g.rng)
		o.series = sh.series % len(g.in.raw)
		src := g.in.extra[sh.series%len(g.in.extra)]
		st := sh.pos % (len(src) - g.w.appendPoints + 1)
		o.points = append([]float64(nil), src[st:st+g.w.appendPoints]...)
	}
	return o
}

// window cuts the shape's window, normalized like the registered data and
// perturbed with fresh noise.
func (g *opGen) window(sh shape) []float64 {
	src := g.in.raw
	if sh.heldOut {
		src = g.in.extra
	}
	s := src[sh.series][sh.pos : sh.pos+sh.length]
	span := g.in.hi - g.in.lo
	q := make([]float64, len(s))
	for i := range q {
		q[i] = (s[i]-g.in.lo)/span + 0.01*g.rng.NormFloat64()
	}
	return q
}
