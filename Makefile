# Convenience targets for the RA-linearizability reproduction.

PYTHON ?= python

.PHONY: install test bench bench-explore bench-compose figures table mutants exhaustive chaos examples all

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# The tier-1 invocation: works from a source checkout without installing.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Naive vs. fast exploration engine, an ungated reproduction table;
# merges the entries section (and the scope and speedups) into
# BENCH_explore.json.  Add -m slow for the 3-replica scopes (minutes).
bench-explore:
	$(PYTHON) -m pytest benchmarks/test_bench_explore_engine.py --benchmark-only -s

# Compositional per-object proof rule vs whole-store product exploration
# on a 3-object ⊗ts store, an ungated reproduction table; merges the
# compose_3r section into BENCH_explore.json (see docs/composition.md).
bench-compose:
	$(PYTHON) -m pytest benchmarks/test_bench_compose.py --benchmark-only -s

figures:
	$(PYTHON) -m repro figures

table:
	$(PYTHON) -m repro table

mutants:
	$(PYTHON) -m repro mutants

exhaustive:
	$(PYTHON) -m repro exhaustive

# Deterministic fault-injection soak: every registry entry under every
# default plan (baseline / high-loss / partition / crash).
chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f > /dev/null || exit 1; done

all: test bench
