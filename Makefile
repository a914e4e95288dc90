# Convenience targets for the RA-linearizability reproduction.

PYTHON ?= python

.PHONY: install test bench bench-explore bench-dpor bench-fp-store bench-compose bench-diff figures table mutants exhaustive chaos examples all

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# The tier-1 invocation: works from a source checkout without installing.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Naive vs. fast exploration engine; refreshes BENCH_explore.json.
# Add -m slow for the 3-replica scopes (minutes).
bench-explore:
	$(PYTHON) -m pytest benchmarks/test_bench_explore_engine.py --benchmark-only -s

# Source-DPOR vs. the sleep-set engine on 3-replica scopes; merges the
# dpor_3r section into BENCH_explore.json.
bench-dpor:
	$(PYTHON) -m pytest benchmarks/test_bench_dpor.py --benchmark-only -s

# Fingerprint-store memory tiers; merges the fp_store section into
# BENCH_explore.json.  Add -m slow for the 4-replica spill scope
# (steal_3r.four_replica_spill).
bench-fp-store:
	$(PYTHON) -m pytest benchmarks/test_bench_fp_store.py --benchmark-only -s

# Compositional per-object proof rule vs whole-store product exploration
# on a 3-object ⊗ts store; merges the compose_3r section into
# BENCH_explore.json (see docs/composition.md).
bench-compose:
	$(PYTHON) -m pytest benchmarks/test_bench_compose.py --benchmark-only -s

# Regression gate: compare freshly benched sections against the committed
# baselines.  OLD/NEW default to the self-compare smoke; override as
# `make bench-diff OLD=BENCH_explore.json NEW=/tmp/BENCH_explore.json`.
OLD ?= BENCH_explore.json
NEW ?= BENCH_explore.json
bench-diff:
	PYTHONPATH=src $(PYTHON) -m repro bench diff $(OLD) $(NEW)

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
