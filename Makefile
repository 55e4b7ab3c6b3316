# Tier-1 gate: `make check` is what CI and reviewers run.

GO ?= go

.PHONY: all build test race vet check check-purego bench bench-smoke bench-sched bench-resume bench-compare bench-module telemetry-smoke sym-smoke docs-check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the concurrency-sensitive packages: the simulated
# distributed runtime, the obs counters/span stack, the worker pool and
# task groups, the kernels/planner that dispatch onto them, the lattice
# layers (peps, mps, ite) the task scheduler drives, and the telemetry
# recorder whose hot path is scraped concurrently with publishers.
race:
	$(GO) test -race ./internal/dist/... ./internal/obs/... ./internal/backend/... \
		./internal/pool/... ./internal/tensor/... ./internal/einsum/... ./internal/linalg/... \
		./internal/einsumsvd/... ./internal/mps/... ./internal/peps/... ./internal/ite/... \
		./internal/telemetry/... ./internal/cliutil/...

vet:
	$(GO) vet ./...
	@# Span parents travel by handle: nothing in the observability core may
	@# read the goroutine id back out of a stack dump again. (pool's
	@# debug.Stack() in the task-panic report is a different call.)
	@if grep -n 'runtime\.Stack' $$(ls internal/obs/*.go internal/telemetry/*.go internal/pool/*.go | grep -v _test.go); then \
		echo "vet: runtime.Stack in internal/obs, internal/telemetry or internal/pool"; exit 1; fi

check: build vet test race

# Portable-kernel build: compile and test with the assembly excluded
# (the build every non-amd64 / non-AVX2 target runs), plus the forced
# KOALA_KERNEL=go dispatch on the default build. Both must stay
# bit-identical to the pre-assembly kernels (DESIGN.md section 13).
check-purego:
	$(GO) vet -tags purego ./...
	$(GO) test -tags purego ./internal/tensor/... ./internal/linalg/... ./internal/einsum/... ./internal/backend/...
	KOALA_KERNEL=go $(GO) test -count=1 ./internal/tensor/... ./internal/linalg/...

# Overhead reference for the tracing-off fast path (<2% target).
bench:
	$(GO) test -bench=BenchmarkContract -benchmem -run=^$$ ./internal/einsum/

# One-iteration pass over every benchmark in the repo: catches bit-rot
# in benchmark code without burning CI minutes on timing. Also exercises
# the live telemetry plane end to end (telemetry-smoke), and closes with
# the tracing Off/Spans pair at enough iterations to read their ratio —
# the on-cost of spans, in every CI log (budget: DESIGN.md section 6).
bench-smoke: telemetry-smoke
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench 'BenchmarkObs(Off|Spans)J1J2' -benchtime 20x .

# Live-telemetry smoke: start an ITE run with -listen on an ephemeral
# port, attach koala-obs watch -once mid-run (which validates the
# /metrics exposition with the strict parser and decodes /healthz),
# require the physics series to be present and health to be ok, then
# SIGINT the run and require a clean graceful exit. Then the bill: the
# J1-J2 4x4 ITE run with and without -listen (best of three each) — a
# monitor reads the registry and must not slow the run it watches by more
# than 1.5x (it once cost 11x, building 20k spans per step for no reader).
telemetry-smoke:
	@tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; set -e; \
	$(GO) build -o $$tmp/koala-ite ./cmd/koala-ite; \
	$(GO) build -o $$tmp/koala-obs ./cmd/koala-obs; \
	$$tmp/koala-ite -model tfi -rows 2 -cols 2 -r 2 -steps 100000 -every 5 \
		-reference=false -listen 127.0.0.1:0 > $$tmp/run.txt 2> $$tmp/err.txt & pid=$$!; \
	addr=""; for i in $$(seq 1 100); do \
		addr=$$(sed -n 's#^telemetry: listening on http://\([^ ]*\).*#\1#p' $$tmp/run.txt); \
		[ -n "$$addr" ] && break; sleep 0.1; done; \
	if [ -z "$$addr" ]; then echo "telemetry-smoke: no listen line"; cat $$tmp/err.txt; \
		kill $$pid 2>/dev/null; exit 1; fi; \
	ok=""; for i in $$(seq 1 100); do \
		if $$tmp/koala-obs watch -once -json $$addr > $$tmp/snap.json 2> $$tmp/watch.err \
			&& grep -q koala_ite_energy_per_site $$tmp/snap.json; then ok=1; break; fi; \
		sleep 0.2; done; \
	if [ -z "$$ok" ]; then echo "telemetry-smoke: no validated snapshot with energy series"; \
		cat $$tmp/watch.err; kill $$pid 2>/dev/null; exit 1; fi; \
	grep -q '"status": "ok"' $$tmp/snap.json || { \
		echo "telemetry-smoke: /healthz not ok"; cat $$tmp/snap.json; kill $$pid 2>/dev/null; exit 1; }; \
	grep -q koala_svd_trunc_error $$tmp/snap.json || { \
		echo "telemetry-smoke: truncation-error series missing"; kill $$pid 2>/dev/null; exit 1; }; \
	kill -INT $$pid; status=0; wait $$pid || status=$$?; \
	if [ $$status -ne 0 ]; then echo "telemetry-smoke: graceful stop exited $$status"; \
		cat $$tmp/err.txt; exit 1; fi; \
	grep -q '^interrupted: stopped gracefully' $$tmp/run.txt || { \
		echo "telemetry-smoke: no graceful-stop report"; cat $$tmp/run.txt; exit 1; }; \
	echo "telemetry-smoke: validated /metrics + /healthz mid-run, graceful SIGINT stop"; \
	run="$$tmp/koala-ite -model j1j2 -rows 4 -cols 4 -r 2 -m 4 -steps 10 -every 1 -reference=false"; \
	best() { b=""; for i in 1 2 3; do s=$$(date +%s%N); "$$@" > /dev/null; e=$$(( ($$(date +%s%N) - s) / 1000000 )); \
		if [ -z "$$b" ] || [ $$e -lt $$b ]; then b=$$e; fi; done; echo $$b; }; \
	bare=$$(best $$run); mon=$$(best $$run -listen 127.0.0.1:0); \
	echo "telemetry-smoke: bare $${bare} ms, -listen $${mon} ms"; \
	if [ $$(( mon * 2 )) -gt $$(( bare * 3 )) ]; then \
		echo "telemetry-smoke: -listen run slower than 1.5x the bare run"; exit 1; fi

# The lattice task scheduler's end-to-end benchmarks, once, at a
# multi-worker pool size: catches panics and scheduling deadlocks that
# only appear with real task-group concurrency.
bench-sched:
	KOALA_WORKERS=4 $(GO) test -run '^$$' \
		-bench 'BenchmarkCachedExpectation|BenchmarkCheckerboardITEStep' -benchtime 1x .

# Crash-and-resume smoke: run an ITE trace to completion at 1 worker,
# re-run with an injected crash (-die-after, exit code 3) mid-way, resume
# from the checkpoint at 4 workers, and require the resumed energy trace
# to match the uninterrupted one bit for bit.
bench-resume:
	@tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; set -e; \
	$(GO) build -o $$tmp/koala-ite ./cmd/koala-ite; \
	flags="-model tfi -rows 2 -cols 2 -r 2 -steps 6 -every 1 -seed 5 -reference=false"; \
	$$tmp/koala-ite $$flags -workers 1 > $$tmp/full.txt; \
	status=0; $$tmp/koala-ite $$flags -workers 4 -checkpoint $$tmp/run.ckpt -die-after 3 \
		> $$tmp/crash.txt || status=$$?; \
	if [ $$status -ne 3 ]; then \
		echo "bench-resume: injected crash exited $$status, want 3"; exit 1; fi; \
	$$tmp/koala-ite $$flags -workers 4 -checkpoint $$tmp/run.ckpt -resume > $$tmp/resume.txt; \
	grep '^step' $$tmp/full.txt > $$tmp/a; grep '^step' $$tmp/resume.txt > $$tmp/b; \
	cmp $$tmp/a $$tmp/b; \
	echo "bench-resume: resumed trace bit-identical to uninterrupted run"

# Deterministic regression gate: rerun the fast evolution suites, the
# block-sparse suite and the two contraction suites (fig8a ~12 s, fig8b
# ~4 s; ungated, the contraction path once overspent flops 2.9x unseen)
# and compare flops, comm bytes, modeled seconds, task counts, plan-cache
# hit rate, and health counters against the committed BENCH_*.json
# baselines (wall clock is reported, never gated — CI boxes are noisy).
# Then inject a regression into a baseline copy and require the gate to
# catch it, so the gate itself cannot rot silently. Writes the JSONL
# trace of the gated run to bench-compare-trace.jsonl (uploaded as a CI
# artifact) for koala-obs analysis.
bench-compare:
	@tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; set -e; \
	$(GO) build -o $$tmp/koala-bench ./cmd/koala-bench; \
	$$tmp/koala-bench -compare . -metrics bench-compare-trace.jsonl fig7a fig7b sym fig8a fig8b; \
	sed -E 's/"flops": [0-9]+/"flops": 1/' BENCH_fig7a.json > $$tmp/BENCH_fig7a.json; \
	status=0; $$tmp/koala-bench -compare $$tmp fig7a > $$tmp/inject.txt 2>&1 || status=$$?; \
	if [ $$status -eq 0 ]; then \
		echo "bench-compare: gate missed an injected flops regression"; exit 1; fi; \
	echo "bench-compare: baselines pass, injected regression caught (exit $$status)"

# The wall-clock benchmark is a module of its own (benchmark/go.mod with
# a replace onto this tree) that `go build ./...` here never sees, so a
# root refactor can break its imports silently. Compile and vet it, then
# run its deterministic tests (~10 s). TestLayerSeparation among them
# asserts that norm_ibmps calls TruncSVD zero times: the guard that the
# applications' priced default (einsumsvd.Priced) never leaks into that
# pure-ImplicitRand workload. TestEveryWorkloadRunsAndChecks runs every
# workload for ~30 s and is timing-sensitive, so it stays out.
bench-module:
	cd benchmark && $(GO) vet ./...
	cd benchmark && $(GO) test -count=1 -skip TestEveryWorkloadRunsAndChecks ./...

# Block-sparse acceptance smoke: run the sym suite (dense vs
# block-sparse ITE at equal bond dimension) and require every model's
# acceptance line — >=2x GEMM-flop reduction, reduced state memory,
# energies within 1e-10 — to PASS, with BENCH_sym.json written.
sym-smoke:
	@tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; set -e; \
	$(GO) build -o $$tmp/koala-bench ./cmd/koala-bench; \
	$$tmp/koala-bench -scaling=false -json $$tmp sym > $$tmp/out.txt; \
	test -f $$tmp/BENCH_sym.json; \
	if ! grep -q "^sym acceptance tfi-dual-z2: .*PASS$$" $$tmp/out.txt || \
	   ! grep -q "^sym acceptance j1j2-u1: .*PASS$$" $$tmp/out.txt; then \
		echo "sym-smoke: acceptance failed"; cat $$tmp/out.txt; exit 1; fi; \
	echo "sym-smoke: block-sparse acceptance passed on both models"

# Documents name only what exists. In README/DESIGN/EXPERIMENTS: every
# backticked `make <target> ...` (and every code-block line starting with
# `make `) names targets of this Makefile, and every backticked path
# under internal/, cmd/ or benchmark/ exists. In README: every -flag on a
# `go run ./cmd/koala-*` line appears in that binary's -h output.
DOCS = README.md DESIGN.md EXPERIMENTS.md
docs-check:
	@tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; set -e; fail=0; \
	targets=$$(for f in $(DOCS); do \
		{ tr '\n' ' ' < $$f | grep -oE '`make +[^`]*`' || true; grep -E '^make ' $$f || true; }; \
		done | tr -d '`' | sed -E 's/^make +//' | tr ' ' '\n' | grep -v '^$$' | sort -u); \
	for t in $$targets; do \
		grep -qE "^$$t:" Makefile || { echo "docs-check: 'make $$t' is not a Makefile target"; fail=1; }; \
	done; \
	paths=$$(for f in $(DOCS); do tr '\n' ' ' < $$f | grep -oE '`(internal|cmd|benchmark)/[^` ]*' || true; \
		done | tr -d '`' | sed -E 's/[.,:;)]+$$//' | sort -u); \
	for p in $$paths; do \
		ls -d $$p > /dev/null 2>&1 || { echo "docs-check: path $$p does not exist"; fail=1; }; \
	done; \
	for c in $$(grep -oE 'go run \./cmd/koala-[a-z]+' README.md | sed 's#.*/##' | sort -u); do \
		$(GO) build -o $$tmp/$$c ./cmd/$$c; \
		$$tmp/$$c -h > $$tmp/$$c.help 2>&1 || true; \
		for fl in $$(grep -E "go run \./cmd/$$c( |$$)" README.md | sed 's/#.*//' | grep -oE ' -[a-z][a-z0-9-]*' | sort -u); do \
			grep -qE -- "(^|[^a-z0-9-])$$fl([^a-z0-9-]|$$)" $$tmp/$$c.help || { \
				echo "docs-check: README runs $$c with $$fl, which its -h does not list"; fail=1; }; \
		done; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "docs-check: $$(echo $$targets | wc -w) make targets, $$(echo $$paths | wc -w) paths and the README flags all exist"

clean:
	$(GO) clean ./...
