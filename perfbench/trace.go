package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"onex"
	"onex/internal/core"
	"onex/internal/dist"
	"onex/internal/grouping"
	"onex/internal/hub"
	"onex/internal/obs"
	"onex/internal/ts"
)

// span is one timed call at a layer boundary. Spans of one op share its
// id, which travels as X-Request-Id from the client through the api
// handler to the shardrpc workers (the coordinator forwards it).
type span struct {
	ID       string  `json:"id"`
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	StartMs  float64 `json:"startMs"`
	Ms       float64 `json:"ms"`
	Bytes    int64   `json:"bytes,omitempty"`
	Status   int     `json:"status,omitempty"`
	CacheHit bool    `json:"cacheHit,omitempty"`
}

// spanLog keeps spans in memory; they are written out when the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) add(s span, start time.Time) {
	s.StartMs = float64(start.Sub(l.t0).Nanoseconds()) / 1e6
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// countingWriter records the status and body size a handler writes.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(b)
	c.bytes += int64(n)
	return n, err
}

// wrap times every request h serves as a span of layer; the span's bytes
// are the request body plus the response body.
func (l *spanLog) wrap(layer string) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			cw := &countingWriter{ResponseWriter: w}
			h.ServeHTTP(cw, r)
			in := max(r.ContentLength, 0)
			name := r.Method + " " + r.URL.Path
			if layer == "rpc" {
				name = r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
				if r.Method == http.MethodPut {
					name = "ship"
				}
			}
			l.add(span{ID: r.Header.Get("X-Request-Id"), Layer: layer, Name: name,
				Ms: msSince(start), Bytes: in + cw.bytes, Status: cw.status}, start)
		})
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// opSum totals one op's spans of one layer.
type opSum struct {
	ms    float64
	bytes int64
	calls int
}

func sumByID(spans []span, layer string, keep func(span) bool) map[string]*opSum {
	out := map[string]*opSum{}
	for _, s := range spans {
		if s.Layer != layer || (keep != nil && !keep(s)) {
			continue
		}
		o := out[s.ID]
		if o == nil {
			o = &opSum{}
			out[s.ID] = o
		}
		o.ms += s.Ms
		o.bytes += s.Bytes
		o.calls++
	}
	return out
}

// coveredMs returns, per op id, how much wall time the layer's spans
// cover: overlapping spans (shards called in parallel) count once.
func coveredMs(spans []span, layer string) map[string]float64 {
	type iv struct{ lo, hi float64 }
	byID := map[string][]iv{}
	for _, s := range spans {
		if s.Layer == layer {
			byID[s.ID] = append(byID[s.ID], iv{s.StartMs, s.StartMs + s.Ms})
		}
	}
	out := map[string]float64{}
	for id, ivs := range byID {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		total, end := 0.0, math.Inf(-1)
		for _, v := range ivs {
			if v.lo > end {
				total += v.hi - v.lo
				end = v.hi
			} else if v.hi > end {
				total += v.hi - end
				end = v.hi
			}
		}
		out[id] = total
	}
	return out
}

// traceOpsFor returns the fixed op prefix every pass of a traced run
// replays: the first ops of the timed run's sequence for the same seed.
func traceOpsFor(w *workload, in *inputs, seed int64) []op {
	g := newOpGen(w, in, seed, "op")
	ops := make([]op, w.traceOps)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// sequentialPass runs ops one at a time on st's registered dataset,
// returning each op's client latency and outcome.
func sequentialPass(st *stack, ops []op, spans *spanLog) ([]*record, *appendLog) {
	var log appendLog
	recs := make([]*record, len(ops))
	for i, o := range ops {
		r := &record{o: o, due: time.Now()}
		log.issue(st, r)
		recs[i] = r
		if spans != nil {
			spans.add(span{ID: o.id, Layer: "client", Name: o.family,
				Ms: float64(r.end.Sub(r.start).Nanoseconds()) / 1e6}, r.start)
		}
	}
	return recs, &log
}

type hubStats struct {
	Hub struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
		Events struct {
			Rebuilds uint64 `json:"rebuilds"`
		} `json:"events"`
	} `json:"hub"`
}

func (s *stack) stats() (hubStats, error) {
	var hs hubStats
	status, body, err := s.send(http.MethodGet, "/v1/stats", "", nil)
	if err != nil {
		return hs, err
	}
	if status != http.StatusOK {
		return hs, fmt.Errorf("stats: status %d", status)
	}
	return hs, json.Unmarshal(body, &hs)
}

func runTraced(w *workload, o options) (*report, error) {
	in := makeInputs(w)
	rep := &report{Metrics: map[string]metric{}, Extra: map[string]float64{}}
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }

	// Pass A, run before and again after the traced pass B so that warm-up
	// favours neither: untraced, sequential, for the tracing overhead.
	untraced := func() ([]*record, error) {
		st, err := newStack(w, nil, nil)
		if err != nil {
			return nil, err
		}
		defer st.close()
		_, lengths, err := st.register(w, in, o.seed)
		if err != nil {
			return nil, err
		}
		in.lengths = lengths
		warmUp(w, in, o.seed, st)
		recs, _ := sequentialPass(st, traceOpsFor(w, in, o.seed), nil)
		return recs, nil
	}
	recsA, err := untraced()
	if err != nil {
		return nil, err
	}
	rep.Lengths = in.lengths
	ops := traceOpsFor(w, in, o.seed)

	// Pass B: the same ops with spans at the client, the api handler and
	// the shardrpc workers.
	spans := &spanLog{t0: time.Now()}
	stB, err := newStack(w, spans.wrap("api"), spans.wrap("rpc"))
	if err != nil {
		return nil, err
	}
	defer stB.close()
	if _, _, err := stB.register(w, in, o.seed); err != nil {
		return nil, err
	}
	setupSpans := spans.snapshot()
	warmUp(w, in, o.seed, stB)
	warmSpans := len(spans.snapshot())
	before, err := stB.stats()
	if err != nil {
		return nil, err
	}
	recsB, logB := sequentialPass(stB, ops, spans)
	after, err := stB.stats()
	if err != nil {
		return nil, err
	}
	rep.Attempted = len(recsB)
	for _, r := range recsB {
		if !r.out.ok {
			rep.Failed++
			if rep.Failed <= 3 {
				rep.Notes = append(rep.Notes, "failed op "+r.o.id+": "+r.out.err)
			}
		}
	}
	if err := checkAll(w, in, o.seed, recsB, logB.order, 1); err != nil {
		return nil, err
	}
	rep.Correct = true
	passB := spans.snapshot()[warmSpans:]

	recsA2, err := untraced()
	if err != nil {
		return nil, err
	}
	var clientA, clientB []float64
	for i := range recsB {
		clientA = append(clientA, (recsA[i].latencyMs()+recsA2[i].latencyMs())/2)
		clientB = append(clientB, recsB[i].latencyMs())
	}
	rep.Extra["trace.untraced_ms_per_op"] = mean(clientA)
	rep.Extra["trace.traced_ms_per_op"] = mean(clientB)
	put("trace.overhead_ms_per_op", "ms", mean(clientB)-mean(clientA))

	// api: handler spans per op, and the client time outside them.
	apiByOp := sumByID(passB, "api", nil)
	var handler, wire, respBytes []float64
	for i, r := range recsB {
		a := apiByOp[r.o.id]
		if a == nil {
			return nil, fmt.Errorf("op %s has no api span", r.o.id)
		}
		handler = append(handler, a.ms)
		wire = append(wire, clientB[i]-a.ms)
		respBytes = append(respBytes, float64(a.bytes))
	}
	put("api.handler_ms_p50", "ms", median(handler))
	put("api.wire_ms_p50", "ms", median(wire))
	put("api.resp_bytes_per_op", "bytes", mean(respBytes))

	// hub: cache outcomes and rebuilds from /v1/stats deltas.
	hits := float64(after.Hub.Cache.Hits - before.Hub.Cache.Hits)
	misses := float64(after.Hub.Cache.Misses - before.Hub.Cache.Misses)
	put("hub.cache_hit_share", "share", ratio0(hits, hits+misses))
	put("hub.rebuilds", "count", float64(after.Hub.Events.Rebuilds-before.Hub.Events.Rebuilds))

	// jobs: queue wait and run time from the final job view.
	var wait, runMs []float64
	polls, jobsN := 0.0, 0.0
	for _, r := range recsB {
		if r.o.family != famJob || !r.out.ok {
			continue
		}
		var v struct {
			CreatedAt  time.Time  `json:"createdAt"`
			StartedAt  *time.Time `json:"startedAt"`
			FinishedAt *time.Time `json:"finishedAt"`
		}
		if err := json.Unmarshal(r.out.body, &v); err != nil || v.StartedAt == nil || v.FinishedAt == nil {
			return nil, fmt.Errorf("op %s: job view without timestamps", r.o.id)
		}
		wait = append(wait, float64(v.StartedAt.Sub(v.CreatedAt).Nanoseconds())/1e6)
		runMs = append(runMs, float64(v.FinishedAt.Sub(*v.StartedAt).Nanoseconds())/1e6)
		polls += float64(r.out.polls)
		jobsN++
	}
	put("jobs.queue_wait_ms_p50", "ms", median0(wait))
	put("jobs.run_ms_p50", "ms", median0(runMs))
	put("jobs.polls_per_job", "count", ratio0(polls, jobsN))

	// shardrpc: worker spans of pass B; shipping time is that of the
	// registration.
	shipMs := 0.0
	for _, s := range setupSpans {
		if s.Layer == "rpc" && s.Name == "ship" {
			shipMs += s.Ms
		}
	}
	var workerMs []float64
	failedCalls := 0.0
	for _, s := range passB {
		if s.Layer != "rpc" {
			continue
		}
		if s.Status >= 400 {
			failedCalls++
		}
		if s.Name != "ship" && s.Name != "healthz" && s.Name != "metrics" {
			workerMs = append(workerMs, s.Ms)
		}
	}
	put("rpc.worker_ms_p50", "ms", median0(workerMs))
	put("rpc.failed_calls", "count", failedCalls)
	put("rpc.ship_s", "s", shipMs/1e3)

	// hub and engine replays one layer down, on the same ops.
	hubOps, err := replayHub(w, in, o.seed, stB.urls, ops, spans)
	if err != nil {
		return nil, err
	}
	engStart := len(spans.snapshot())
	engOps, err := replayEngine(w, in, o.seed, stB.urls, ops, spans, 0)
	if err != nil {
		return nil, err
	}
	var apiSelf, hubSelf, hubAppend []float64
	for i, r := range recsB {
		f := r.o.family
		a, h, e := apiByOp[r.o.id].ms, hubOps[i], engOps[i]
		if f == famAppend {
			hubAppend = append(hubAppend, h.ms)
			continue
		}
		if f == famMatch {
			apiSelf = append(apiSelf, a-h.ms)
		}
		child := e.ms
		if h.cacheHit {
			child = 0
		}
		hubSelf = append(hubSelf, h.ms-child)
	}
	put("api.self_ms_p50", "ms", median0(apiSelf))
	put("hub.self_ms_p50", "ms", median0(hubSelf))
	put("hub.append_ms_p50", "ms", median0(hubAppend))

	famMs := map[string][]float64{}
	for i, r := range recsB {
		famMs[r.o.family] = append(famMs[r.o.family], engOps[i].ms)
	}
	for _, f := range []string{famMatch, famKNN, famRange, famSeasonal} {
		put("engine."+f+"_ms_p50", "ms", median0(famMs[f]))
	}
	put("core.append_ms_p50", "ms", median0(famMs[famAppend]))

	// shardrpc per-op figures from the engine replay's worker spans.
	engSpans := spans.snapshot()[engStart:]
	rpcByOp := sumByID(engSpans, "rpc", func(s span) bool { return s.Name != "ship" })
	rpcCover := coveredMs(engSpans, "rpc")
	calls := map[string][]float64{}
	var wireMs, rpcBytes []float64
	for i, r := range recsB {
		f := r.o.family
		if f == famAppend || f == famSeasonal {
			continue
		}
		c := rpcByOp[r.o.id]
		if c == nil {
			c = &opSum{}
		}
		calls[f] = append(calls[f], float64(c.calls))
		if len(stB.urls) > 0 {
			wireMs = append(wireMs, engOps[i].ms-rpcCover[r.o.id])
		}
		rpcBytes = append(rpcBytes, float64(c.bytes))
	}
	put("rpc.calls_per_match", "count", mean0(calls[famMatch]))
	put("rpc.calls_per_knn", "count", mean0(calls[famKNN]))
	put("rpc.calls_per_range", "count", mean0(calls[famRange]))
	put("rpc.coord_wire_ms_per_op", "ms", mean0(wireMs))
	put("rpc.bytes_per_op", "bytes", mean0(rpcBytes))

	// query: work counters from a sequential-engine replay, where every
	// count is a function of the inputs alone.
	counts, groups, indexMB, err := countPass(w, in, o.seed, ops)
	if err != nil {
		return nil, err
	}
	for k, v := range counts {
		unit := "count"
		if strings.HasSuffix(k, "_share") {
			unit = "share"
		}
		put(k, unit, v)
	}
	put("core.groups", "count", groups)
	put("core.index_mb", "MB", indexMB)

	// grouping / core / rspace build times.
	gs, cs, err := buildTimes(w, in, o.seed)
	if err != nil {
		return nil, err
	}
	put("grouping.build_s", "s", gs)
	put("core.build_s", "s", cs)
	put("rspace.build_s", "s", cs-gs)

	// dist: the DTW kernel and LB_Keogh on pairs drawn from the workload.
	nsCell, lbNs, meanCells := kernelTimes(in, ops, o.seed)
	put("dist.dtw_ns_per_cell", "ns", nsCell)
	put("dist.lb_keogh_ns", "ns", lbNs)
	knnMs := rep.Metrics["engine.knn_ms_p50"].Value
	put("dist.knn_kernel_share", "share",
		ratio0(counts["query.dtw_per_knn"]*meanCells*nsCell, knnMs*1e6))

	for _, f := range families {
		n := 0
		for _, op := range ops {
			if op.family == f {
				n++
			}
		}
		rep.Extra["ops."+f] = float64(n)
	}
	if err := writeSpans(o, spans.snapshot()); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("tracing overhead %+.3f ms per op (traced %.3f, untraced %.3f)",
		rep.Metrics["trace.overhead_ms_per_op"].Value, mean(clientB), mean(clientA)))
	return rep, nil
}

// replayed is one op's time one layer down.
type replayed struct {
	ms       float64
	cacheHit bool
}

// replayHub replays ops on a fresh hub.Dataset holding the same data.
func replayHub(w *workload, in *inputs, seed int64, urls []string, ops []op, spans *spanLog) ([]replayed, error) {
	h := hub.New(hub.Config{})
	defer h.Close()
	series := make([]onex.Series, len(in.raw))
	for i, v := range in.raw {
		series[i] = onex.Series{Values: v}
	}
	ds, err := h.Register(datasetName, hub.Spec{
		Series: series, Seed: seed, LengthCount: w.lengthCount,
		Opts: onex.Options{ST: w.st, Seed: seed, Shards: w.shards, ShardWorkers: urls},
	})
	if err != nil {
		return nil, err
	}
	if err := ds.Wait(context.Background()); err != nil {
		return nil, err
	}
	mode := matchMode(w)
	out := make([]replayed, len(ops))
	for i, o := range ops {
		ctx := obs.ContextWithRequestID(context.Background(), o.id)
		hitsBefore := ds.Info().CacheHits
		start := time.Now()
		switch o.family {
		case famMatch:
			_, err = ds.Match(ctx, o.query, onex.MatchAny, 0)
		case famKNN:
			_, err = ds.Match(ctx, o.query, mode, w.knnK)
		case famRange, famJob:
			_, err = ds.Range(ctx, o.query, o.length, w.radius, false)
		case famSeasonal:
			_, err = ds.Seasonal(o.series, o.length)
		case famBatch:
			qs := make([]onex.KNNQuery, len(o.batch))
			for j, q := range o.batch {
				qs[j] = onex.KNNQuery{Query: q, Mode: onex.MatchAny}
			}
			_, err = ds.KNNBatch(ctx, qs)
		case famAppend:
			err = ds.Append(o.series, o.points)
		}
		out[i] = replayed{ms: msSince(start), cacheHit: ds.Info().CacheHits > hitsBefore}
		if err != nil {
			return nil, fmt.Errorf("hub replay op %s: %w", o.id, err)
		}
		spans.add(span{ID: o.id, Layer: "hub", Name: o.family, Ms: out[i].ms, CacheHit: out[i].cacheHit}, start)
	}
	return out, nil
}

func matchMode(w *workload) onex.MatchMode {
	if w.knnMode == "exact" {
		return onex.MatchExact
	}
	return onex.MatchAny
}

func buildBase(w *workload, in *inputs, seed int64, urls []string, parallelism int) (*onex.Base, error) {
	series := make([]onex.Series, len(in.raw))
	for i, v := range in.raw {
		series[i] = onex.Series{Values: v}
	}
	opts := referenceOptions(w, in, seed)
	opts.Shards = w.shards
	opts.ShardWorkers = urls
	opts.Parallelism = parallelism
	return onex.Build(datasetName, series, opts)
}

// engineCall runs o on base and returns the grown base for appends.
func engineCall(w *workload, base *onex.Base, o op) (*onex.Base, int, error) {
	ctx := obs.ContextWithRequestID(context.Background(), o.id)
	switch o.family {
	case famMatch:
		_, err := base.BestMatchContext(ctx, o.query, onex.MatchAny)
		return base, 1, err
	case famKNN:
		ms, err := base.BestKMatchesObserved(ctx, o.query, matchMode(w), w.knnK, nil)
		return base, len(ms), err
	case famRange, famJob:
		rs, err := base.RangeSearchObserved(ctx, o.query, o.length, w.radius, false, nil)
		return base, len(rs), err
	case famSeasonal:
		ps, err := base.Seasonal(o.series, o.length)
		return base, len(ps), err
	case famBatch:
		qs := make([]onex.KNNQuery, len(o.batch))
		for j, q := range o.batch {
			qs[j] = onex.KNNQuery{Query: q, Mode: onex.MatchAny}
		}
		rs := base.BestKMatchesBatch(ctx, qs)
		for _, r := range rs {
			if r.Err != nil {
				return base, 0, r.Err
			}
		}
		return base, len(rs), nil
	case famAppend:
		next, err := base.Append(o.series, o.points...)
		return next, 0, err
	}
	return base, 0, fmt.Errorf("unknown family %s", o.family)
}

// replayEngine replays ops on an onex.Base built from the same inputs,
// served by the same workers as the workload.
func replayEngine(w *workload, in *inputs, seed int64, urls []string, ops []op, spans *spanLog, parallelism int) ([]replayed, error) {
	base, err := buildBase(w, in, seed, urls, parallelism)
	if err != nil {
		return nil, err
	}
	defer func() { _ = base.Close() }()
	out := make([]replayed, len(ops))
	for i, o := range ops {
		start := time.Now()
		base, _, err = engineCall(w, base, o)
		out[i] = replayed{ms: msSince(start)}
		if err != nil {
			return nil, fmt.Errorf("engine replay op %s: %w", o.id, err)
		}
		spans.add(span{ID: o.id, Layer: "engine", Name: o.family, Ms: out[i].ms}, start)
	}
	return out, nil
}

// countPass replays ops on an in-process, single-worker base and derives
// the query work counts from Stats().Query deltas.
func countPass(w *workload, in *inputs, seed int64, ops []op) (map[string]float64, float64, float64, error) {
	base, err := buildBase(w, in, seed, nil, 1)
	if err != nil {
		return nil, 0, 0, err
	}
	st := base.Stats()
	groups, indexMB := float64(st.Representatives), float64(st.IndexBytes)/1e6
	type tally struct{ n, reps, kim, keogh, dtw, members, answers float64 }
	t := map[string]*tally{}
	for _, f := range families {
		t[f] = &tally{}
	}
	for _, o := range ops {
		pre := base.Stats().Query
		next, answers, err := engineCall(w, base, o)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("count pass op %s: %w", o.id, err)
		}
		post := base.Stats().Query
		base = next
		c := t[o.family]
		c.n++
		c.reps += float64(post.RepsExamined - pre.RepsExamined)
		c.kim += float64(post.PrunedByKim - pre.PrunedByKim)
		c.keogh += float64(post.PrunedByKeogh - pre.PrunedByKeogh)
		c.dtw += float64(post.DTWComputed - pre.DTWComputed)
		c.members += float64(post.MembersTested - pre.MembersTested)
		c.answers += float64(answers)
	}
	m, k, r := t[famMatch], t[famKNN], t[famRange]
	return map[string]float64{
		"query.reps_per_match":    ratio0(m.reps, m.n),
		"query.kim_prune_share":   ratio0(m.kim, m.reps),
		"query.keogh_prune_share": ratio0(m.keogh, m.reps),
		"query.dtw_per_knn":       ratio0(k.dtw, k.n),
		"query.members_per_knn":   ratio0(k.members, k.n),
		"query.knn_useful_share":  ratio0(k.answers, k.dtw),
		"query.dtw_per_range":     ratio0(r.dtw, r.n),
		"query.members_per_range": ratio0(r.members, r.n),
	}, groups, indexMB, nil
}

// buildTimes times grouping.Build and core.Build on the workload's data
// with the served options; each is the median of three builds.
func buildTimes(w *workload, in *inputs, seed int64) (float64, float64, error) {
	d := &ts.Dataset{Name: datasetName}
	for _, v := range in.raw {
		d.Append("", append([]float64(nil), v...))
	}
	work, _, _, err := core.PrepareDataset(d, core.NormalizeDataset)
	if err != nil {
		return 0, 0, err
	}
	var gs, cs []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := grouping.Build(work, grouping.Config{ST: w.st, Lengths: in.lengths, Seed: seed}); err != nil {
			return 0, 0, err
		}
		gs = append(gs, time.Since(start).Seconds())
		start = time.Now()
		if _, err := core.Build(d, core.BuildConfig{ST: w.st, Lengths: in.lengths, Seed: seed}); err != nil {
			return 0, 0, err
		}
		cs = append(cs, time.Since(start).Seconds())
	}
	return median(gs), median(cs), nil
}

// kernelSink keeps the timed kernel calls from being optimized away.
var kernelSink float64

// kernelTimes times Workspace.DTWEarlyAbandon (no cutoff, so every cell is
// computed) and LB_Keogh on (query, window) pairs: each k-NN query of the
// workload against windows of its length cut from the normalized data.
// It returns ns per DTW cell, ns per LB_Keogh call and the mean cell
// count of a k-NN DTW.
func kernelTimes(in *inputs, ops []op, seed int64) (float64, float64, float64) {
	rng := rand.New(rand.NewSource(seed ^ 0xd7))
	span := in.hi - in.lo
	type pair struct{ q, c, u, l []float64 }
	var pairs []pair
	cells, knnCells, knn := 0.0, 0.0, 0.0
	for _, o := range ops {
		if o.family != famKNN {
			continue
		}
		knn++
		knnCells += float64(len(o.query) * len(o.query))
		for j := 0; j < 4; j++ {
			s := in.raw[rng.Intn(len(in.raw))]
			st := rng.Intn(len(s) - len(o.query) + 1)
			c := make([]float64, len(o.query))
			for i := range c {
				c[i] = (s[st+i] - in.lo) / span
			}
			u, l := dist.Envelope(c, len(c), nil, nil)
			pairs = append(pairs, pair{o.query, c, u, l})
			cells += float64(len(o.query) * len(c))
		}
	}
	if len(pairs) == 0 {
		return 0, 0, 0
	}
	var ws dist.Workspace
	var dtwNs, lbNs []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for _, p := range pairs {
			kernelSink += ws.DTWEarlyAbandon(p.q, p.c, dist.Unconstrained, math.Inf(1))
		}
		dtwNs = append(dtwNs, float64(time.Since(start).Nanoseconds())/cells)
		start = time.Now()
		for k := 0; k < 20; k++ {
			for _, p := range pairs {
				kernelSink += dist.LBKeogh(p.q, p.u, p.l, math.Inf(1))
			}
		}
		lbNs = append(lbNs, float64(time.Since(start).Nanoseconds())/float64(20*len(pairs)))
	}
	return median(dtwNs), median(lbNs), knnCells / knn
}

func writeSpans(o options, spans []span) error {
	path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", o.out, o.workload, o.seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ratio0, median0 and mean0 report 0 where a layer did no such work (a
// workload without shard workers makes no RPCs), so every per-layer metric
// is present on every workload.
func ratio0(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func mean0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}
