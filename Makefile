PYTHON ?= python

# Put src first on PYTHONPATH, composing with (not clobbering) whatever the
# caller already set — in the environment or on the make command line
# (`override` is what keeps a command-line value from defeating the
# composition).
ifeq ($(origin PYTHONPATH), undefined)
export PYTHONPATH := src
else
export override PYTHONPATH := src:$(PYTHONPATH)
endif

#: Pool width forwarded to benchmarks/harness.py --workers (the parallel
#: discovery gate is defined at 4).
WORKERS ?= 4

#: Coverage floor (percent) enforced on src/repro/chase/ by `make coverage`.
COVERAGE_FLOOR ?= 80

#: Seed for the fault-injection suite (`make test-chaos`); any value works,
#: the point is that a failing run is reproducible from the seed alone.
CHAOS_SEED ?= 1307

#: Bind address / port for `make serve` (PORT=0 binds an ephemeral port).
HOST ?= 127.0.0.1
PORT ?= 8080

#: Parallel chase workers per session round for `make serve` (1 = serial).
SERVE_WORKERS ?= 1

.PHONY: test test-chaos lint bench bench-quick bench-gate bench-exhibits coverage stats docs-check serve bench-service

test:
	$(PYTHON) -m pytest -x -q

# The fault-injection suite: the chaos harness's own tests, then the
# parallel-equivalence, checkpoint and round-driver agreement suites with
# every pool-backed chase and session routed through ChaosMatcher
# (CHASE_CHAOS_SEED set).  Results must stay byte-identical to serial runs
# despite injected worker kills, delays, and corrupted results; see
# docs/CI.md.
test-chaos:
	$(PYTHON) -m pytest tests/chase/test_chaos.py -x -q
	CHASE_CHAOS_SEED=$(CHAOS_SEED) $(PYTHON) -m pytest \
		tests/chase/test_parallel.py tests/chase/test_checkpoint.py \
		tests/chase/test_driver.py -x -q

# Ruff (config in pyproject.toml).  The offline dev container does not ship
# ruff; skip with a note there instead of failing — CI installs it and gets
# the real check.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

bench:
	$(PYTHON) benchmarks/harness.py --workers $(WORKERS)

bench-quick:
	$(PYTHON) benchmarks/harness.py --quick --workers $(WORKERS)

# Gate on the trajectory the harness wrote (see docs/CI.md for the knobs).
bench-gate:
	$(PYTHON) benchmarks/check_regression.py

# The per-exhibit pytest-benchmark suites (X1-X12 + ablations).
bench-exhibits:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest bench_*.py -q

# Broken intra-repo markdown links in docs/*.md and the top-level *.md
# files (stdlib-only checker; the CI docs job and a tier-1 test run the
# same thing).
docs-check:
	$(PYTHON) tools/check_doc_links.py

# The chase service: long-lived sessions with incremental resume and a
# digest-keyed verdict cache over a stdlib asyncio HTTP front end.  See
# docs/SERVICE.md for the endpoint reference.
serve:
	$(PYTHON) -m repro.service --host $(HOST) --port $(PORT) \
		--workers $(SERVE_WORKERS)

# The service load bench + equivalence gate, standalone (the same section
# `make bench`/`make bench-quick` folds into BENCH_chase.json).
bench-service:
	$(PYTHON) benchmarks/bench_service.py --quick

# Per-workload telemetry summary of the last bench report (rounds,
# trigger accounting, cache hit rate, pool efficiency); run `make bench`
# or `make bench-quick` first.  See docs/OBSERVABILITY.md.
stats:
	$(PYTHON) -m repro.obs.report BENCH_chase.json

# Tier-1 under coverage.py with an enforced floor on the chase kernel
# (src/repro/chase/) and an HTML report in htmlcov/.  The offline dev
# container does not ship coverage; skip with a note there instead of
# failing — CI installs it and enforces the floor (docs/CI.md).
coverage:
	@if $(PYTHON) -m coverage --version >/dev/null 2>&1; then \
		$(PYTHON) -m coverage run --source=src/repro -m pytest -x -q && \
		$(PYTHON) -m coverage html -d htmlcov && \
		$(PYTHON) -m coverage report --include='src/repro/chase/*' \
			--fail-under=$(COVERAGE_FLOOR); \
	else \
		echo "coverage not installed; skipping (CI enforces the floor)"; \
	fi
