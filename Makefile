# Convenience entry points; everything is plain dune underneath.

# The directory the smoke sweep writes its store to.  CI overrides this
# to a workspace path so the store can be uploaded as an artifact on
# failure.
SMOKE_OUT ?= /tmp/shades_smoke_sweep
# The smoke sweep also records one execution trace per grid point here:
# when the gate fails, the traces say exactly which (round, vertex,
# event) moved (`shades_cli trace diff` against a known-good run).
SMOKE_TRACES ?= /tmp/shades_smoke_traces
# Where `trace gate` writes its JSON divergence report.  CI overrides
# this to a workspace path so a failing gate uploads the report as an
# artifact.
GATE_REPORT ?= /tmp/shades_gate_report.json
# Where `shades lint` writes its JSON findings report — same CI
# override story as the gate report.
LINT_REPORT ?= /tmp/shades_lint_report.json
# Where `shades lint` writes its SARIF 2.1.0 log; the CI lint job
# uploads it to GitHub code scanning so findings annotate the diff.
LINT_SARIF ?= /tmp/shades_lint.sarif
# The serve smoke test's sockets and final metrics snapshots.  CI
# overrides SERVE_METRICS to a workspace path so a failing smoke run
# uploads the daemon's own counters as an artifact; the Prometheus
# scrape of GET /metrics lands beside it (SERVE_PROM defaults to
# $(SERVE_METRICS:.json=.prom) inside the script).
SERVE_SOCKET ?= /tmp/shades_serve_smoke.sock
SERVE_METRICS ?= /tmp/shades_serve_metrics.json
# Speed gate (BENCH_micro): tolerance bands for the micro-benchmark
# compare, and where the raw measurement JSON lands so a failing gate
# can upload it as a CI artifact.  The time band is generous because
# wall-time medians travel badly across machines (CI widens it
# further); the allocation band is tight because words/run are nearly
# machine-independent and carry the real regression signal.
BENCH_TIME_TOL ?= 3.0
BENCH_ALLOC_TOL ?= 1.5
BENCH_QUOTA ?= 0.5
BENCH_RAW ?= /tmp/shades_bench_raw.json
# Where the adversary smoke campaign writes its report (markdown +
# JSON + sharded store).  CI overrides this to a workspace path so a
# failing gate uploads the report JSON as an artifact.  The blessed
# classification baseline it is gated against lives in
# experiments/adversary-smoke.store/.
ADV_OUT ?= /tmp/shades_adversary

.PHONY: all check build test lint smoke trace-gate experiments-quick \
	serve-smoke adversary-smoke bench-gate sweep \
	bless doc bench bench-engine clean

all: check

# The tier-1 gate is a chain of the named gates below, each recipe
# written once.  Order: build → lint → tests → paper claims →
# measurement gate → forensics gate → daemon smoke → adversary gate →
# speed gate, so a source-hygiene regression fails before any baseline
# is consulted and the slowest step runs last.  Intentional changes to
# any baseline go through `make bless`.  CI runs the same targets as
# one named step each.
check: build lint test experiments-quick smoke trace-gate serve-smoke \
	adversary-smoke bench-gate

build:
	dune build @all

test:
	dune runtest

# shadescheck: the determinism & locality lint over the compiled typed
# ASTs (needs a full build so every .cmt is fresh).  Exit 1 on any
# unsuppressed finding, 2 if the .cmts cannot be loaded.
lint: build
	@mkdir -p $(dir $(LINT_REPORT)) $(dir $(LINT_SARIF))
	dune exec bin/shades_cli.exe -- lint --json $(LINT_REPORT) \
	    --sarif $(LINT_SARIF)

# The paper-claims gate: every quick row of bin/experiments.exe (the
# lower-bound constructions, fooling arguments and scheme round counts
# of EXPERIMENTS.md); exits 1 on the first FAIL.
experiments-quick:
	dune exec bin/experiments.exe -- quick

# The measurement gate: the tiny-grid sweep compared --strict against
# the committed sharded store BENCH_tiny/ — any changed
# rounds/messages/advice, or any grid-shape change, exits nonzero.  It
# also records one execution trace per grid point into SMOKE_TRACES.
# Tracing is metrics-neutral, so recording never perturbs the gate.
smoke:
	@mkdir -p $(SMOKE_OUT)
	dune exec bin/shades_cli.exe -- sweep --tiny -o $(SMOKE_OUT) \
	    --trace-out $(SMOKE_TRACES) --compare BENCH_tiny --strict

# The trace-forensics gate: the tiny grid's execution traces compared
# against the blessed baselines in BENCH_tiny/traces/, failing with the
# first divergent (round, vertex, event) per drifted job (exit 1
# divergent, 2 unreadable baseline).
trace-gate:
	@mkdir -p $(dir $(GATE_REPORT))
	dune exec bin/shades_cli.exe -- trace gate -b BENCH_tiny/traces \
	    --json $(GATE_REPORT)

# Boot the daemon on a Unix socket (with a persistent --cache-dir and
# the HTTP metrics plane), hit every endpoint once through the client —
# batch included — assert a repeated advise is a cache hit (no oracle
# rerun), scrape /healthz and /metrics with curl, then restart the
# daemon on the same cache directory and assert the disk tier answers
# everything with zero recomputation.
serve-smoke: build
	@mkdir -p $(dir $(SERVE_METRICS))
	SERVE_SOCKET=$(SERVE_SOCKET) SERVE_METRICS=$(SERVE_METRICS) \
	    sh scripts/serve_smoke.sh

# The adversary gate: the corruption smoke campaign pins every mutant
# classification (detected / harmless / fooling) to the blessed store
# under experiments/ — a scheme or codec change that silently alters
# what the shades detect, or lets a mutant fool a shade undetected,
# fails even when the honest baselines agree (exit 0 clean, 1
# verdict/drift, 2 bad baseline).
adversary-smoke: build
	@mkdir -p $(ADV_OUT)
	dune exec bin/shades_cli.exe -- adversary campaign --smoke \
	    --out $(ADV_OUT) --compare experiments/adversary-smoke.store

# The speed gate: the micro-benchmarks compared against
# BENCH_micro/baseline.json with the tolerance bands above, so a
# hot-path slowdown or allocation regression fails check.
bench-gate:
	@mkdir -p $(dir $(BENCH_RAW))
	dune exec bench/main.exe -- --quota $(BENCH_QUOTA) \
	    --compare BENCH_micro/baseline.json --json $(BENCH_RAW) \
	    --time-tolerance $(BENCH_TIME_TOL) --alloc-tolerance $(BENCH_ALLOC_TOL)

# Regenerate the committed full sweep baseline (sharded).
sweep:
	dune exec bin/shades_cli.exe -- sweep --family both -o BENCH_sweep

# The explicit policy for intentionally changed numbers or behaviour:
# regenerate every committed baseline in one shot — the full sweep, the
# tiny CI measurement gate, AND the blessed tiny-grid traces — then
# commit the new shards + manifests + .shtr files alongside the change
# that moved them.  Regenerating them together keeps the measurement
# and forensics gates telling the same story; `trace bless` only
# rewrites trace files whose digest actually changed.
bless: sweep
	dune exec bin/shades_cli.exe -- sweep --tiny -o BENCH_tiny
	dune exec bin/shades_cli.exe -- trace bless -b BENCH_tiny/traces
	dune exec bin/shades_cli.exe -- adversary campaign --smoke --out experiments
	dune exec bench/main.exe -- --quota $(BENCH_QUOTA) -o BENCH_micro/baseline.json

# Build the odoc API reference for the public libraries (landing at
# _build/default/_doc/_html/index.html).  The container used for local
# development may lack odoc; that is a polite skip here, while the CI
# docs job installs odoc and builds @doc with warnings-as-errors for
# lib/trace, lib/runtime and lib/localsim.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
	    dune build @doc && \
	    echo "API reference: _build/default/_doc/_html/index.html"; \
	else \
	    echo "odoc not installed — skipping (CI builds the docs; try 'opam install odoc')"; \
	fi

# Print the full micro-benchmark table (medians per kernel).  The
# speed gate itself is `make bench-gate`; the wall-clock one-shard vs
# multi-domain engine shootout is `make bench-engine`.
bench:
	dune exec bench/main.exe

# Wall-clock shootout on a 50k-vertex graph; --assert enforces the
# multi-domain win on machines with >= 4 cores and SKIPs honestly
# elsewhere.
bench-engine:
	dune exec bench/engine_bench.exe -- --assert

clean:
	dune clean
