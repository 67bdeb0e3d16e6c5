// Package onex reproduces ONEX (Neamtu et al., PVLDB 10(3), 2016):
// interactive time-series exploration powered by the marriage of
// similarity distances — cheap Euclidean-distance grouping offline,
// DTW-based exploration online.
//
// # Quick start
//
// CI (.github/workflows/ci.yml, "CI" badge once the repo has a canonical
// remote): every push runs gofmt, go vet, the race-enabled test suite on
// Go 1.22/1.23, and a one-iteration benchmark smoke pass.
//
// Build and test from a clean checkout (no dependencies beyond the Go
// toolchain):
//
//	go build ./...      # compile every package and binary
//	go test ./...       # full test suite
//	make ci             # the exact CI gate: fmt-check, vet, build,
//	                    # race tests, bench smoke
//
// Explore a dataset end to end:
//
//	go run ./examples/quickstart
//
// The distance kernel everything sits on lives in internal/dist: ED/DTW
// with the paper's normalizations, LB_Kim/LB_Keogh lower bounds with
// early abandoning, warping envelopes, and an allocation-reusing DTW
// workspace whose unconstrained path is a cache-blocked fused-row-pair
// kernel — bit-identical to the plain two-row recurrence (locked by a
// 2000-trial exact-equality test) and measured at a ~1.3× geomean
// single-core speedup by the committed BENCH_kernel.json (`make
// bench-kernel`, CI: bench-kernel). Run the package benchmarks with:
//
//	go test -bench . -run '^$' ./internal/dist
//
// # Parallel execution
//
// Both stages shard across a bounded worker pool (internal/parallel). The
// offline build parallelizes across subsequence lengths and across
// series-chunks within a length with a deterministic merge, so a fixed
// seed yields an identical base at every worker count. Online queries fan
// the representative scan and group mining out with a shared atomic
// best-so-far bound and pooled DTW workspaces; the parallel paths are
// answer-invariant — BestMatch/BestKMatches/RangeSearch return identical
// results at every setting (proven by the equivalence suites in
// internal/query and internal/grouping, enforced ≥ 70% covered in CI).
//
//	base, _ := onex.Build("demo", series, onex.Options{
//		ST:          0.2,
//		Parallelism: 0, // 0 = GOMAXPROCS; 1 forces sequential
//	})
//	m, _ := base.BestMatch(q, onex.MatchAny)     // one query, many workers
//	rs := base.BestMatchBatch(qs, onex.MatchAny) // many queries at once
//	for _, r := range rs {
//		// r.Match answers its query; r.Err is per-query (ragged/NaN
//		// inputs fail alone, identical to the single-call behaviour).
//	}
//
// `make bench-parallel` (CI: the bench-parallel job) emits
// BENCH_parallel.json, the sequential-vs-parallel sweep of build, single
// queries and batches at worker counts 1..GOMAXPROCS with an equivalence
// check baked in.
//
// # Streaming ingestion
//
// Bases grow in two directions without rebuilding. Extend adds whole new
// series; Append (new) streams points onto an existing series — the live-
// traffic shape where sensors and tickers deliver observations
// continuously. Only the suffix subsequences whose windows overlap the
// appended points are pushed through Algorithm 1's nearest-representative
// assignment, and the index layers (Dc rows, envelopes, visit orders)
// refresh incrementally for the touched groups, so absorbing a point batch
// costs O(new-windows × groups × length) — the committed BENCH_stream.json
// measures it at 5–13× cheaper than a rebuild, widening with base size.
//
//	grown, err := base.Append(seriesID, 0.41, 0.43, 0.40) // new points
//	grown.Drift()                                         // incremental fraction
//
// Both paths return a fresh *Base and leave the receiver untouched, so
// in-flight queries never block (internal/hub swaps the pointer under a
// generation counter and re-snapshots to disk). Incremental assignment
// never splits or re-shuffles existing groups, so the grouping slowly
// drifts from what a from-scratch build would produce; the engine tracks
// that drift and, once an append or extend would push it past
// Options.RebuildDrift (default 0.25), transparently re-runs the full
// offline construction over the final data — equal to a from-scratch Build
// over the (pinned) indexed length set — and resets it. The
// equivalence bar is enforced by the append-vs-rebuild property suite:
// after any Append/Extend interleaving, RangeSearchExact answers match a
// from-scratch Build over the final data within 1e-12, and the rebuild
// branch reproduces the from-scratch base exactly.
// `make bench-stream` (CI: bench-stream) regenerates the sweep.
//
// # Sharded serving
//
// Options.Shards hash-partitions one dataset's series across N engine
// shards (internal/shard), each holding its own GTI/LSI index layers — the
// sparse inter-representative distance lists, envelopes and scan orders —
// over just its series, derived concurrently on the worker pool and queried
// by scatter-gather: the representative scan fans across shard-owned groups
// (each global group is scanned by exactly one shard, in its median-sum
// order), range search runs verbatim per shard and concatenates, and group
// mining replays the global pivot walk. There is one query engine: the
// default Shards: 0 (or 1) base is that engine over a single in-process
// shard holding every series. The similarity grouping itself stays global
// and deterministic — ONEX's query semantics are grouping-dependent, so
// independent per-shard groupings would change answers — which is what
// makes sharding a pure scale knob:
//
//	base, _ := onex.Build("big", series, onex.Options{ST: 0.2, Shards: 8})
//
// answers BestMatch / BestKMatches / RangeSearch(Exact) / Seasonal
// identically to Shards: 0, down to tie-breaking (bit-equal representative
// distances resolve to the smaller global group id at every layout),
// enforced by the layout-equivalence property suite in internal/shard,
// which compares every layout Float64bits-equal against a sequential
// reference of Algorithm 2 (random datasets, query mixes and Append/Extend
// interleavings at Parallelism 1 and 8, under -race). The SP-Space
// guidance surface — RecommendThreshold, DegreeOf, Stats.STHalf/STFinal —
// is likewise computed from the one global grouping (without materializing
// a global O(g²) matrix) and is bit-identical at every shard count, and
// WithThreshold adapts the global grouping once and re-assembles the same
// layout, so adapted bases are layout-invariant too. Appends and extends
// route deterministically — series → shard is a pure hash — and refresh
// only the
// shards whose series or groups the step touched; snapshots persist the
// global payload plus the layout in one stream (format v5 adds the DcTopK
// retention setting; v3 snapshots load as one shard, v4 and earlier with
// the default retention) and re-derive the shards on load. Stats().PerShard,
// the hub Info and /v1/datasets/{name}/stats report the per-shard series/
// group/byte populations; `make bench-shard` (CI: bench-shard) emits
// BENCH_shard.json sweeping shard counts 1/2/4/8 over a homogeneous and a
// heterogeneous population with the one-shard-equivalence check baked in.
//
// # Index memory
//
// The one index layer that grew quadratically with the grouping — the
// per-length inter-representative distance matrix Dc (Def. 10), O(g²)
// per indexed length — is stored sparsely: each representative retains
// only its Options.DcTopK nearest entries (default 32; negative retains
// all) plus its exact row sum. This is safe because the dense matrix is
// consumed ONLY at build time — the row sums, scan orders and merge
// thresholds it feeds are stored exactly, and every query path that needs
// an inter-representative distance recomputes it on demand from the
// representatives — so retention is purely a memory knob: every query
// answer, recommendation and maintenance result is bit-identical at every
// DcTopK setting, enforced by the package-level sparse-vs-dense
// equivalence property suite across sequential/parallel execution and
// unsharded/sharded layouts. Stats().IndexBytes reflects the sparse
// layout, so the memory saving is observable per dataset and per shard.
//
// # Serving
//
// cmd/onex-server exposes bases over HTTP through internal/hub, a
// concurrent multi-dataset catalog: datasets register at runtime
// (POST /v1/datasets), build asynchronously on a bounded worker pool with
// per-dataset lifecycle state (pending → building → ready/failed) and
// build progress (Options.Progress / Options.Cancel), persist to disk as
// snapshots (Base.SaveFile / onex.LoadFile) for instant reload, extend
// incrementally while queries keep running, and answer repeated queries
// from a bounded LRU result cache keyed on the dataset generation and
// shard layout. Per-dataset drift/rebuild counters and per-shard sizes
// surface on /v1/stats and /v1/datasets/{name}/stats, so the amortized
// rebuild policy is tunable from data. See
// cmd/onex-server/README.md for the full v1 API with curl examples, and
//
//	go run ./examples/hub
//
// for the hub driven directly from Go. The serve-smoke CI job (also
// `make serve-smoke`) boots the server end to end, and `make bench-serve`
// emits BENCH_serve.json comparing cold vs cached /match latency.
//
// # Distributed serving
//
// Every shard interaction inside the scatter-gather engine goes through
// one seam, query.ShardTransport (Info / ScanBest / ScanFixed /
// EvalMembers / Range / Stats / Close). The in-process engine is the
// `local` transport (query.LocalShard); internal/shardrpc supplies the
// `remote` one: `onex-server -role worker` serves per-shard REST
// endpoints, and the coordinator — given Options.ShardWorkers (or the
// server's -shard-workers flag) — computes the global grouping once,
// ships each shard's series and owned groups to a worker keyed by
// (dataset, generation, shard), and fans queries out with the same
// bounds-as-hints protocol the local path uses. Because the coordinator
// runs one decision procedure over transport answers, and
// ±Inf-capable floats travel as math.Float64bits, a worker-served base
// answers the full query mix bit-identically to the in-process engine —
// including through mid-query worker restarts: shipping is idempotent on
// the (dataset, generation, shard) key, so a client that sees
// 404/unknown_generation re-ships the spec and retries, with per-call
// timeouts and bounded backoff throughout (a worker down past the retry
// budget surfaces as shardrpc.ErrUnavailable → HTTP 503). The remote
// equivalence property suite in internal/shard locks all of this in
// across parallelism and shard-count layouts under -race, worker
// kill/restart included. See docs/api.md for the worker wire protocol
// and cmd/onex-server/README.md for running a worker fleet;
// `make dist-smoke` boots two workers plus a coordinator and
// cross-checks answers against an unsharded server end to end.
package onex

// Paper-to-code glossary. The implementation follows the paper's notation
// (Neamtu et al., PVLDB 10(3), 2016) wherever Go allows; this table maps the
// paper's symbols to the identifiers that realize them.
//
//	Paper                         Code
//	-----                         ----
//	X = (x1…xn), dataset D        ts.Series, ts.Dataset
//	(Xp)^i_j  (Def. 1)            ts.Subseq{Series p, Start j, Length i};
//	                              grouping.Member inside groups
//	ED, ED̄ (Defs. 2, 5)           dist.ED, dist.NormalizedED
//	DTW, DTW̄ (Defs. 3, 6)         dist.DTW, dist.NormalizedDTW (÷2·max(n,m))
//	warping path P, w(P)          dist.DTWPath, dist.PathPoint
//	similarity threshold ST       Options.ST / Base.ST()
//	similarity group G^i_k        grouping.Group (Def. 8: same length,
//	                              ED̄ to rep ≤ ST/2, nearest rep)
//	representative R^i_k (Def. 7) grouping.Group.Rep (point-wise average)
//	R-Space (Def. 9)              rspace.Base
//	Dc (Def. 10)                  rspace.LengthEntry.TopK (sparse top-k
//	                              rows; dense Dc is build-time scratch)
//	GTI (Sec. 4.3)                rspace.LengthEntry (group vector, TopK,
//	                              Sums/SumOrder/MedianOrder, STHalf/STFinal)
//	LSI (Sec. 4.3)                grouping.Group.Members (ED-sorted) +
//	                              rspace.LengthEntry.Envelopes
//	SP-Space, SThalf/STfinal      rspace SThalf/STFinal per length;
//	(Sec. 4.2, Fig. 1)            Base.RecommendThreshold, Base.DegreeOf
//	S/M/L similarity degrees      onex.Strict / Medium / Loose
//	Algorithm 1                   grouping.Build (+ grouping.Extend /
//	                              grouping.AppendPoints for incremental
//	                              maintenance)
//	Algorithm 2.A (Q1)            Base.BestMatch / BestKMatches
//	Algorithm 2.B (Q2)            Base.Seasonal / SeasonalAll
//	Algorithm 2.C (vary ST′)      Base.WithThreshold
//	Lemma 1                       tested in grouping (pairwise ≤ ST)
//	Lemma 2 (ED↔DTW triangle)     the MatchAny early-stop rule and
//	                              RangeSearch wholesale admission
//	LB_Kim, LB_Keogh (Sec. 5.3)   dist.LBKim, dist.LBKeogh(+Ordered)
//	early abandoning (Sec. 5.3)   dist.Workspace.DTWEarlyAbandon,
//	                              dist.SquaredEDEarlyAbandon
//	Trillion [22]                 baseline.Trillion
//	PAA / PDTW [19]               baseline.PAA
//	Standard DTW                  baseline.BruteForce
