# Developer entry points.  `make check` is the pre-commit gate: lint
# (when ruff is available), the project's own static-analysis pass
# (`repro check`), then the tier-1 test suite.

PYTHON ?= python

.PHONY: check lint static static-fast test bench bench-placement bench-environment bench-staticcheck bench-serve bench-e2e trace-demo

check: lint static test

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

static:
	PYTHONPATH=src $(PYTHON) -m repro check src tests examples README.md docs

# Same gate with the incremental cache (.repro-check-cache.json):
# warm runs re-analyse only edited files and their importers.
static-fast:
	PYTHONPATH=src $(PYTHON) -m repro check src tests examples README.md docs --cache

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Smoke-sized parallel/cache/batch-decode benchmark; writes
# BENCH_parallel.json (the perf-trajectory data point CI archives per
# commit).  Fails only when parallel, cached or batched results differ
# from the serial/uncached/looped reference; speedups are reported,
# not gated (they are machine-relative).
bench:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_parallel.py --smoke

# Placement-layer benchmark; writes BENCH_placement.json and asserts
# the registry's dispatch overhead stays under 5% of direct
# construction (and that fast-path conflict graphs match ground truth).
bench-placement:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_placement.py --smoke

# Environment-layer benchmark; writes BENCH_environment.json and
# asserts the registry's dispatch overhead stays under 5% of direct
# construction and that the vectorized sample_round beats the scalar
# per-worker loop (with bit-identical streams) on a 64-worker round.
bench-environment:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_environment.py --smoke

# Static-analysis benchmark; writes BENCH_staticcheck.json and asserts
# the warm incremental-cache run is >=5x faster than cold with
# bit-identical findings.
bench-staticcheck:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_staticcheck.py

# Serve benchmark: 8 jobs through the file mailbox, asserting reports
# and streamed traces are bit-for-bit sequential, traces re-aggregate
# losslessly, the shared worker pool beats per-job engines by >= 1.5x,
# a SIGKILLed coordinator's successor resumes bit-identically, and a
# live-mode injected failure never touches peers.
# Writes BENCH_serve.json.
bench-serve:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serve.py

# End-to-end benchmark, one repeat: exits non-zero on any failed
# result-digest, recovery-bound, decoder-oracle or served==sequential
# check, so the benchmark's correctness gates run wherever code under
# them moves (timings from a single repeat are not a measurement).
bench-e2e:
	PYTHONPATH=src $(PYTHON) benchmarks/e2e/run.py --repeats 1

trace-demo:
	PYTHONPATH=src $(PYTHON) examples/traced_run.py
