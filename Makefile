# Mirrors .github/workflows/ci.yml so contributors run the same gate
# locally before pushing: `make ci`.

GO ?= go

.PHONY: fmt fmt-check vet build perfbench-build test bench serve-smoke obs-smoke dist-smoke bench-serve bench-parallel bench-stream bench-shard bench-load bench-kernel bench-dist lint coverage ci

fmt: ## Reformat all Go sources in place
	gofmt -w .

fmt-check: ## Fail if any file needs gofmt (CI's formatting gate)
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

vet: ## Static analysis
	$(GO) vet ./...

build: ## Compile every package and binary
	$(GO) build ./...

perfbench-build: ## Compile and vet the end-to-end benchmark (its own module, so ./... never reaches it)
	$(GO) build -C perfbench -o /dev/null ./... && $(GO) vet -C perfbench ./...

test: ## Full test suite with the race detector, shuffled (CI's main job)
	$(GO) test -race -shuffle=on ./...

bench: ## Run every benchmark once (CI's bench-smoke job)
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

serve-smoke: ## Boot onex-server, drive the v1 API end to end (CI's serve-smoke job)
	sh scripts/serve_smoke.sh

obs-smoke: ## Boot onex-server with tracing/logging/pprof on and verify the observability surface
	sh scripts/obs_smoke.sh

dist-smoke: ## Boot 2 shard workers + coordinator, cross-check answers vs local references (incl. worker restart)
	sh scripts/dist_smoke.sh

bench-serve: ## Emit BENCH_serve.json: cold vs cached /match latency over HTTP
	ONEX_BENCH_OUT=$(CURDIR)/BENCH_serve.json \
		$(GO) test ./internal/api -run '^TestEmitServeBench$$' -v -count=1

bench-load: ## Emit BENCH_load.json: closed-loop mixed-traffic latency vs offered load
	$(GO) run ./cmd/onex-bench -exp load \
		-load-out $(CURDIR)/BENCH_load.json

bench-parallel: ## Emit BENCH_parallel.json: sequential vs parallel build/query/batch sweep
	$(GO) run ./cmd/onex-bench -exp parallel -scale 2 \
		-parallel-out $(CURDIR)/BENCH_parallel.json

bench-stream: ## Emit BENCH_stream.json: incremental point-append vs full rebuild sweep
	$(GO) run ./cmd/onex-bench -exp stream \
		-stream-out $(CURDIR)/BENCH_stream.json

bench-shard: ## Emit BENCH_shard.json: intra-dataset sharding sweep at shards 1/2/4/8
	$(GO) run ./cmd/onex-bench -exp shard -scale 2 \
		-shard-out $(CURDIR)/BENCH_shard.json

bench-kernel: ## Emit BENCH_kernel.json: fused vs reference DTW kernel, 1 goroutine
	$(GO) run ./cmd/onex-bench -exp kernel -repeats 5 \
		-kernel-out $(CURDIR)/BENCH_kernel.json

bench-dist: ## Emit BENCH_dist.json: local vs worker-served shard transport latency sweep
	$(GO) run ./cmd/onex-bench -exp dist \
		-dist-out $(CURDIR)/BENCH_dist.json

# Static analysis beyond go vet (CI's lint job runs this target, so the
# tool versions are pinned here alone). Tools are fetched on demand.
STATICCHECK_VERSION = 2024.1.1
GOVULNCHECK_VERSION = v1.1.3
lint: ## staticcheck + govulncheck (downloads the tools on first use)
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Coverage gate of the parallel/sharded execution engine: the packages the
# concurrency and layout-equivalence test suites exercise must stay
# ≥ $(COVER_MIN)% covered. -coverpkg merges cross-package coverage (the
# shard suite drives most of query's scatter executor, and the sparse-vs-
# dense equivalence suites drive rspace's retention and threshold paths).
COVER_MIN = 70
COVER_PKGS = ./internal/query/ ./internal/grouping/ ./internal/parallel/ ./internal/shard/ ./internal/rspace/
coverage: ## Enforce ≥ 70% statement coverage on query+grouping+parallel+shard+rspace
	$(GO) test -count=1 -coverprofile=cover.out \
		-coverpkg=$(shell echo "$(COVER_PKGS)" | tr ' ' ',') $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total%"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t + 0 < min) ? 1 : 0 }' \
		|| { echo "coverage $$total% is below $(COVER_MIN)%" >&2; exit 1; }

ci: fmt-check vet lint build perfbench-build test bench coverage serve-smoke obs-smoke dist-smoke ## The full local gate, same checks as CI
