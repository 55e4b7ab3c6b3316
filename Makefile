# Tier-1 gate: `make check` is what CI and reviewers run.

GO ?= go

.PHONY: all build test race vet check check-purego bench bench-smoke bench-sched bench-resume bench-compare bench-module telemetry-smoke sym-smoke dist-smoke clean

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
# root refactor can break its imports silently. Compile and vet it; its
# tests take ~30 s and one of them is timing-sensitive, so they stay out
# of the gate.
bench-module:
	cd benchmark && $(GO) vet ./...

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

# Real rank-process transport smoke (binaries built -race):
#  1. koala-rqc at ranks 1/2/4 over Unix sockets must print stdout
#     bit-identical to the in-process transport at the same rank count
#     (real rank processes change nothing about the numerics).
#  2. A 4-rank fig7a run's deterministic metrics (modeled dist stats
#     included; measured wall clock excluded by design) must diff clean
#     against the in-process run via koala-obs diff.
#  3. Cross-rank tracing: a 4-rank fig7a run with -rank-trace must be
#     scrapeable mid-run on every child rank's /metrics (validated by
#     the strict exposition parser in koala-obs watch), yield per-rank
#     stats in BENCH_fig7a.json, and merge into one clock-aligned trace
#     whose report shows all 4 ranks with nonzero comm seconds, at
#     least one matched send→recv flow per collective op the run used,
#     and a cross-rank critical path.
#  4. Killed-rank teardown: with KOALA_RANK_DIE_AFTER injected the job
#     must fail naming a rank and leave zero orphaned rank processes.
dist-smoke:
	@tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; set -e; \
	$(GO) build -race -o $$tmp/koala-rqc ./cmd/koala-rqc; \
	$(GO) build -race -o $$tmp/koala-bench ./cmd/koala-bench; \
	$(GO) build -o $$tmp/koala-obs ./cmd/koala-obs; \
	for n in 1 2 4; do \
		$$tmp/koala-rqc -n 3 -layers 2 -ms 1,2 -ranks $$n -transport inproc \
			> $$tmp/rqc-inproc-$$n.txt 2> $$tmp/rqc-inproc-$$n.err; \
		$$tmp/koala-rqc -n 3 -layers 2 -ms 1,2 -ranks $$n -transport unix \
			> $$tmp/rqc-unix-$$n.txt 2> $$tmp/rqc-unix-$$n.err; \
		cmp $$tmp/rqc-inproc-$$n.txt $$tmp/rqc-unix-$$n.txt || { \
			echo "dist-smoke: rqc output differs across transports at ranks=$$n"; exit 1; }; \
	done; \
	grep -q "measured:" $$tmp/rqc-unix-4.err || { \
		echo "dist-smoke: no measured collective summary at ranks=4"; cat $$tmp/rqc-unix-4.err; exit 1; }; \
	$$tmp/koala-bench -transport inproc -ranks 4 -scaling=false \
		-metrics $$tmp/fig7a-inproc.jsonl fig7a > $$tmp/fig7a-inproc.txt; \
	$$tmp/koala-bench -transport unix -ranks 4 -scaling=false \
		-metrics $$tmp/fig7a-unix.jsonl fig7a > $$tmp/fig7a-unix.txt; \
	$$tmp/koala-obs diff $$tmp/fig7a-inproc.jsonl $$tmp/fig7a-unix.jsonl || { \
		echo "dist-smoke: fig7a deterministic metrics differ across transports"; exit 1; }; \
	rt=$$tmp/rt; \
	$$tmp/koala-bench -transport unix -ranks 4 -scaling=false -rank-trace $$rt \
		-json $$tmp fig7a > $$tmp/fig7a-traced.txt 2> $$tmp/fig7a-traced.err & bpid=$$!; \
	for r in 1 2 3; do \
		ok=""; for i in $$(seq 1 300); do \
			if [ -f $$rt/rank$$r.addr ] \
				&& $$tmp/koala-obs watch -once -json $$(cat $$rt/rank$$r.addr) \
					> $$tmp/rank$$r.snap 2> $$tmp/rank$$r.watch.err \
				&& grep -q koala_dist_measured_comm_seconds $$tmp/rank$$r.snap; then ok=1; break; fi; \
			sleep 0.1; done; \
		if [ -z "$$ok" ]; then echo "dist-smoke: no validated mid-run /metrics snapshot from rank $$r"; \
			cat $$tmp/rank$$r.watch.err 2>/dev/null; cat $$tmp/fig7a-traced.err; \
			kill $$bpid 2>/dev/null; exit 1; fi; \
	done; \
	wait $$bpid || { echo "dist-smoke: traced fig7a run failed"; cat $$tmp/fig7a-traced.err; exit 1; }; \
	grep -q '"ranks"' $$tmp/BENCH_fig7a.json || { \
		echo "dist-smoke: BENCH_fig7a.json has no per-rank stats array"; exit 1; }; \
	$$tmp/koala-obs merge -o $$tmp/merged.jsonl -chrome $$tmp/merged.trace.json $$rt > $$tmp/merge.txt; \
	grep -q "merged 4 ranks" $$tmp/merge.txt || { \
		echo "dist-smoke: merge did not see 4 ranks"; cat $$tmp/merge.txt; exit 1; }; \
	grep -q "max residual skew" $$tmp/merge.txt || { \
		echo "dist-smoke: merge reported no clock-alignment bound"; cat $$tmp/merge.txt; exit 1; }; \
	for op in bcast gather allreduce alltoall; do \
		pairs=$$(awk -v op=$$op '$$1 == op && $$3 == "matched" {print $$2}' $$tmp/merge.txt); \
		if [ -z "$$pairs" ] || [ "$$pairs" -lt 1 ]; then \
			echo "dist-smoke: no matched send-recv flow pairs for $$op"; cat $$tmp/merge.txt; exit 1; fi; \
	done; \
	grep -q '"ph": "s"' $$tmp/merged.trace.json || { \
		echo "dist-smoke: chrome trace has no flow events"; exit 1; }; \
	$$tmp/koala-obs report $$tmp/merged.jsonl > $$tmp/merged-report.txt; \
	grep -q "merged trace: 4 ranks" $$tmp/merged-report.txt || { \
		echo "dist-smoke: report missing merged banner"; cat $$tmp/merged-report.txt; exit 1; }; \
	grep -q "cross-rank critical path" $$tmp/merged-report.txt || { \
		echo "dist-smoke: report missing cross-rank critical path"; exit 1; }; \
	for r in 0 1 2 3; do \
		comm=$$(awk -v r=$$r 'f && $$1 == r {print $$4; exit} /per-rank utilization/ {f=1}' $$tmp/merged-report.txt); \
		case "$$comm" in ""|0.000000) \
			echo "dist-smoke: rank $$r comm seconds missing or zero in merged report"; \
			cat $$tmp/merged-report.txt; exit 1;; esac; \
	done; \
	status=0; KOALA_RANK_DIE_AFTER=2 $$tmp/koala-rqc -n 3 -layers 1 -ms 1 -ranks 4 -transport unix \
		> $$tmp/kill.txt 2> $$tmp/kill.err || status=$$?; \
	if [ $$status -eq 0 ]; then \
		echo "dist-smoke: killed-rank job exited 0"; cat $$tmp/kill.err; exit 1; fi; \
	grep -q "rank" $$tmp/kill.err || { \
		echo "dist-smoke: killed-rank error does not name a rank"; cat $$tmp/kill.err; exit 1; }; \
	sleep 1; \
	if pgrep -f "$$tmp/koala-rqc" > /dev/null 2>&1; then \
		echo "dist-smoke: orphaned rank processes after failure"; pgrep -af "$$tmp/koala-rqc"; exit 1; fi; \
	echo "dist-smoke: ranks 1/2/4 bit-identical across transports, metrics diff clean, 4-rank trace merged and aligned, killed rank torn down with no orphans"

clean:
	$(GO) clean ./...
