# Convenience targets for the repro moving-objects database.

PYTHON ?= python

.PHONY: install test lint bench bench-harness bench-e2e report report-fast examples clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# `repro lint` is stdlib-only and always runs; ruff/mypy run when
# installed (skipped with a notice otherwise), but their findings still
# fail the target when they are present.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src tests --baseline --flow
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipping"; \
	fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "lint: mypy not installed, skipping"; \
	fi

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-harness:
	PYTHONPATH=src $(PYTHON) -m repro bench run --fast

# End-to-end benchmark (perfbench/): the four workloads untraced, then
# one traced taxi-pipeline run for the per-layer split.  Run it on the
# parent and on the change for a perf PR's before and after figures.
SEED ?= 7
E2E_WORKLOADS = taxi-pipeline taxi-serve trucking-live policy-sweep

bench-e2e:
	@for w in $(E2E_WORKLOADS); do \
		echo "=== $$w (seed $(SEED)) ==="; \
		$(PYTHON) perfbench/run.py --workload $$w --seed $(SEED) \
			--seconds 4 --trace 0 || exit 1; \
	done
	@echo "=== taxi-pipeline traced (seed $(SEED)) ==="
	$(PYTHON) perfbench/run.py --workload taxi-pipeline --seed $(SEED) \
		--seconds 4 --trace 1

report:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.runner

report-fast:
	PYTHONPATH=src $(PYTHON) -m repro.experiments.runner --fast

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis *.egg-info src/*.egg-info
