package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// setupRounds is how many times a run registers its dataset; setup_s
	// is their median.
	setupRounds = 21
	// warmupOps bounds the untimed warm-up that lets connections, the
	// allocator and lazy set-up settle before timing.
	warmupOps  = 200
	warmupTime = time.Second
	// maxGenLag is the open-loop generator's p99 lateness beyond which a
	// run is invalid: the offered load was not the scheduled one.
	maxGenLag = 50 * time.Millisecond
)

// record is one op of the timed phase.
type record struct {
	o          op
	out        outcome
	due, start time.Time
	end        time.Time
	// lo..hi are the reference generations the answer may reflect: the
	// appends done before it was sent through those begun before it ended.
	lo, hi int
}

func (r *record) latencyMs() float64 {
	if !r.out.ok {
		return math.Inf(1)
	}
	return float64(r.end.Sub(r.due).Nanoseconds()) / 1e6
}

// arena keeps the response bodies of a timed phase for the checks that
// follow it, outside the Go heap (an anonymous mapping whose pages are
// committed as they are written), so they do not count in heap_mb.
type arena struct {
	mu  sync.Mutex
	mem []byte
	n   int
}

// arenaReserve bounds the bodies one run may keep; pages are committed
// only as bodies are written.
const arenaReserve = 4 << 30

func newArena() (*arena, error) {
	mem, err := syscall.Mmap(-1, 0, arenaReserve, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("reserve response arena: %w", err)
	}
	return &arena{mem: mem}, nil
}

// keep copies b into the arena and returns the copy, or b itself once the
// arena is full.
func (a *arena) keep(b []byte) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n+len(b) > len(a.mem) {
		return b
	}
	c := a.mem[a.n : a.n+len(b) : a.n+len(b)]
	copy(c, b)
	a.n += len(b)
	return c
}

func (a *arena) release() { _ = syscall.Munmap(a.mem) }

// heapSampler records the live heap (as marked by the latest GC) every
// heapEvery until stopped.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

const heapEvery = 200 * time.Millisecond

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				metrics.Read(m)
				h.samples = append(h.samples, float64(m[0].Value.Uint64())/1e6)
			}
		}
	}()
	return h
}

// median stops the sampler and returns the median sample.
func (h *heapSampler) median() float64 {
	close(h.stop)
	<-h.done
	return median(h.samples)
}

// appendLog serializes appends, as a single writer would, so the order in
// which they reach the server is the order the reference replays.
type appendLog struct {
	bodies  *arena // keeps answers for the later check when non-nil
	mu      sync.Mutex
	done    atomic.Int64 // appends answered 2xx
	started atomic.Int64
	order   []op // successful appends in server order
}

func (l *appendLog) do(s *stack, o op) outcome {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.started.Add(1)
	out := s.do(o)
	if out.ok {
		l.order = append(l.order, o)
		l.done.Add(1)
	}
	return out
}

func (l *appendLog) issue(s *stack, r *record) {
	r.start = time.Now()
	if r.o.family == famAppend {
		r.out = l.do(s, r.o)
		r.end = time.Now()
		return
	}
	r.lo = int(l.done.Load())
	r.out = s.do(r.o)
	r.end = time.Now()
	r.hi = int(l.started.Load())
	if l.bodies != nil {
		r.out.body = l.bodies.keep(r.out.body)
	}
}

// setUp boots the stack and registers the workload's dataset setupRounds
// times (dropping it in between), returning the registration times.
func setUp(w *workload, in *inputs, seed int64, st *stack) ([]float64, error) {
	var secs []float64
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			if err := st.drop(); err != nil {
				return nil, err
			}
		}
		d, lengths, err := st.register(w, in, seed)
		if err != nil {
			return nil, err
		}
		secs = append(secs, d.Seconds())
		in.lengths = lengths
	}
	return secs, nil
}

// warmUp runs untimed, unchecked query ops from a separate sequence.
func warmUp(w *workload, in *inputs, seed int64, st *stack) {
	g := newOpGen(w, in, seed+7919, "warm")
	deadline := time.Now().Add(warmupTime)
	for i := 0; i < warmupOps && time.Now().Before(deadline); i++ {
		st.do(g.queryOnly())
	}
}

func runTimed(w *workload, o options) (*report, error) {
	in := makeInputs(w)
	st, err := newStack(w, nil, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	setups, err := setUp(w, in, o.seed, st)
	if err != nil {
		return nil, err
	}
	warmUp(w, in, o.seed, st)

	gen := newOpGen(w, in, o.seed, "op")
	dur := time.Duration(o.seconds) * time.Second
	bodies, err := newArena()
	if err != nil {
		return nil, err
	}
	defer bodies.release()
	log := appendLog{bodies: bodies}
	heap := sampleHeap()
	var recs []*record
	var elapsed time.Duration
	var lags []float64
	if w.rate > 0 {
		recs, lags, elapsed = openLoop(w, st, gen, &log, o.seed, dur)
	} else {
		recs, elapsed = closedLoop(st, gen, &log, dur)
	}

	// The live heap over the timed phase, before any reference base; the
	// bodies kept for checking live outside the heap.
	heapMB := heap.median()

	rep := &report{Metrics: map[string]metric{}, Extra: map[string]float64{}, Lengths: in.lengths}
	rep.Attempted = len(recs)
	for _, r := range recs {
		if !r.out.ok {
			rep.Failed++
			if rep.Failed <= 3 {
				rep.Notes = append(rep.Notes, "failed op "+r.o.id+": "+r.out.err)
			}
		}
	}
	if err := checkAll(w, in, o.seed, recs, log.order, max(1, w.checkEvery)); err != nil {
		return nil, err
	}
	rep.Correct = true

	byFam := map[string][]float64{}
	var all []float64
	for _, r := range recs {
		l := r.latencyMs()
		all = append(all, l)
		byFam[r.o.family] = append(byFam[r.o.family], l)
	}
	for _, f := range families {
		rep.Extra["ops."+f] = float64(len(byFam[f]))
	}
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }
	pct := func(name string, xs []float64, q float64) float64 {
		if !supports(len(xs), q) {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s rests on %d samples, fewer than ten beyond it", name, len(xs)))
		}
		return quantile(xs, q)
	}
	put("setup_s", "s", median(setups))
	put("heap_mb", "MB", heapMB)
	put("ok_share", "share", float64(rep.Attempted-rep.Failed)/float64(rep.Attempted))
	put("throughput_qps", "1/s", float64(rep.Attempted-rep.Failed)/elapsed.Seconds())
	put("mix_p50_ms", "ms", pct("mix_p50_ms", all, 0.50))
	for _, f := range []string{famMatch, famKNN, famRange, famSeasonal, famAppend, famJob} {
		name := f + "_p50_ms"
		put(name, "ms", pct(name, byFam[f], 0.50))
	}
	// Tail percentiles go to the report only: on a small shared machine
	// their run-to-run spread is wider than any bound a metric may have.
	rep.Extra["mix_p99_ms"] = pct("mix_p99_ms", all, 0.99)
	for _, f := range []string{famMatch, famKNN, famRange} {
		name := f + "_p95_ms"
		rep.Extra[name] = pct(name, byFam[f], 0.95)
	}

	rep.Extra["connections"] = float64(st.conns)
	rep.Extra["setup_s.min"] = quantile(setups, 0)
	rep.Extra["setup_s.max"] = quantile(setups, 1)
	if w.rate > 0 {
		lag := quantile(lags, 0.99)
		rep.Extra["gen_lag_ms_p99"] = lag
		rep.Extra["offered_qps"] = w.rate
		rep.Notes = append(rep.Notes, fmt.Sprintf("open loop at %.0f ops/s over at most %d connections; generator lag p99 %.3f ms",
			w.rate, st.conns, lag))
		if lag > float64(maxGenLag.Nanoseconds())/1e6 {
			return nil, fmt.Errorf("run invalid: the generator fell behind its schedule (lag p99 %.1f ms > %v)", lag, maxGenLag)
		}
	}
	return rep, nil
}

// closedLoop runs one client: each op is sent when the previous returned.
func closedLoop(st *stack, gen *opGen, log *appendLog, dur time.Duration) ([]*record, time.Duration) {
	var recs []*record
	begin := time.Now()
	for time.Since(begin) < dur {
		r := &record{o: gen.next(), due: time.Now()}
		log.issue(st, r)
		recs = append(recs, r)
	}
	return recs, time.Since(begin)
}

// openLoop sends ops at Poisson arrival times whether or not earlier ones
// have returned; latency counts from each op's due time.
func openLoop(w *workload, st *stack, gen *opGen, log *appendLog, seed int64, dur time.Duration) ([]*record, []float64, time.Duration) {
	rng := rand.New(rand.NewSource(seed ^ 0x0a77))
	n := int(w.rate * dur.Seconds())
	recs := make([]*record, n)
	offsets := make([]time.Duration, n)
	offset := time.Duration(0)
	for i := range recs {
		offset += time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second))
		offsets[i] = offset
		recs[i] = &record{o: gen.next()}
	}
	var wg sync.WaitGroup
	begin := time.Now()
	for i, r := range recs {
		r.due = begin.Add(offsets[i])
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(r *record) {
			defer wg.Done()
			log.issue(st, r)
		}(r)
	}
	wg.Wait()
	var last time.Time
	lags := make([]float64, len(recs))
	for i, r := range recs {
		lags[i] = float64(r.start.Sub(r.due).Nanoseconds()) / 1e6
		if r.end.After(last) {
			last = r.end
		}
	}
	return recs, lags, last.Sub(begin)
}

// checkAll replays the successful appends on a reference base in server
// order and checks every every-th answered query against the generations
// it may reflect. A mismatch is an error: the run fails.
func checkAll(w *workload, in *inputs, seed int64, recs []*record, appends []op, every int) error {
	ref, err := newReference(w, in, seed)
	if err != nil {
		return err
	}
	ref.appends = appends
	queries := make([]*record, 0, len(recs))
	for i, r := range recs {
		if r.out.ok && r.o.family != famAppend && i%every == 0 {
			queries = append(queries, r)
		}
	}
	sort.SliceStable(queries, func(i, j int) bool { return queries[i].lo < queries[j].lo })
	// Queries sharing a generation window are checked in parallel; the
	// reference bases are immutable.
	for i := 0; i < len(queries); {
		lo, hi := queries[i].lo, min(queries[i].hi, len(appends))
		j := i
		for j < len(queries) && queries[j].lo == lo && min(queries[j].hi, len(appends)) == hi {
			j++
		}
		if err := ref.advance(hi, lo); err != nil {
			return err
		}
		if err := checkGroup(ref, queries[i:j], lo, hi); err != nil {
			return err
		}
		i = j
	}
	return nil
}

func checkGroup(ref *reference, queries []*record, lo, hi int) error {
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) || errs[k] != nil {
					return
				}
				r := queries[i]
				errs[k] = ref.check(r.o, r.out.body, lo, hi)
			}
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}
