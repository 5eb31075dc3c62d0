# Developer entry points.  `make check` is the pre-commit gate: lint
# (when ruff is available), the project's own static-analysis pass
# (`repro check`), then the tier-1 test suite.

PYTHON ?= python

.PHONY: check lint static test goldens bench-e2e trace-demo

check: lint static test

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

# `repro check` with no paths checks src tests examples README.md docs.
static:
	PYTHONPATH=src $(PYTHON) -m repro check

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q --durations=10

# Re-record every golden with the tests/golden/record_*.py scripts
# and fail if any file moved, appeared or is uncommitted: the goldens
# must be what the source produces, not what it once produced.  `git
# diff` shows what moved; `git status` also catches a new untracked
# file (a recorder writing under a new name).
goldens:
	for script in tests/golden/record_*.py; do \
		PYTHONPATH=src $(PYTHON) $$script || exit 1; \
	done
	git diff --exit-code -- tests/golden
	@status="$$(git status --porcelain -- tests/golden)"; \
	if [ -n "$$status" ]; then \
		echo "tests/golden is not clean:"; echo "$$status"; exit 1; \
	fi

# End-to-end benchmark, one repeat: exits non-zero on a failed
# recovery-bound, decoder-oracle or served==sequential check, or when
# repeats disagree on a result digest.  It compares no digest with a
# recorded one, so a change that moves a digest deterministically still
# exits 0: diff the `result_digest` lines against the parent's run
# (timings from a single repeat are not a measurement).
bench-e2e:
	PYTHONPATH=src $(PYTHON) benchmarks/e2e/run.py --repeats 1

trace-demo:
	PYTHONPATH=src $(PYTHON) examples/traced_run.py
