# Convenience targets for the repro package.

PYTHON ?= python
BENCH_OUT ?= /tmp/repro-bench

.PHONY: install test test-fast check loc \
	bench-check bench-e2e digests bench-figures \
	restart-check report examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -m "not slow"

# Tier-1 tests.  Run `make bench-check` before perf-sensitive PRs.
check: test

# Python line counts of the package, its tests and the benchmarks (the
# end-to-end harness aside) — ROADMAP item 8 wants the trend visible,
# lines that move out of src/ included; CI's tier-1 job prints it on
# every run.
loc:
	@printf 'src/repro  %s\ntests      %s\nbenchmarks %s\n' \
		"$$(find src/repro -name '*.py' | xargs cat | wc -l)" \
		"$$(find tests -name '*.py' | xargs cat | wc -l)" \
		"$$(find benchmarks -name '*.py' -not -path 'benchmarks/e2e/*' \
			| xargs cat | wc -l)"

# Isolated ratio guards (docs/observability.md): batched NLPP vs the
# scalar oracle, fused sweep vs the loop oracle, per-walker SPO vgl GEMM
# vs the per-orbital Ref, batched SPO vgl/vgh vs a per-point loop, and
# the shared slab's per-worker private RSS.  Each timed guard asserts its
# exactness contract, then that the fast path still beats the retained
# oracle by its floor.  ~10 s; run on a quiet machine.
bench-check:
	PYTHONPATH=src $(PYTHON) -m pytest -s benchmarks/test_ratio_guards.py

# The repo benchmark (BENCHMARK.json, benchmarks/e2e/README.md): four
# workloads end to end in fresh interpreters — walker-steps/s, run and
# setup seconds, peak RSS — plus one traced run attributed per layer.
bench-e2e:
	mkdir -p $(BENCH_OUT)
	$(PYTHON) benchmarks/e2e/run.py --out $(BENCH_OUT)/e2e.json

# Trace sha256 of the four benchmark workloads on seeds 21 and 7 (one
# in-process repeat each, through the benchmark's own worker.repeat,
# imported read-only).  A change that promises "same bits" prints the
# same eight lines as its parent commit; the committed ones are in
# benchmarks/digests.txt (CI: `make digests | diff - benchmarks/digests.txt`).
# The hash seed is left to the environment: CI also diffs under
# PYTHONHASHSEED=1, which moves any trace that depends on string hashing.
digests:
	@PYTHONPATH=src:benchmarks/e2e $(PYTHON) -c \
	"import worker; [print(seed, name, worker.repeat(name, seed, \
	w.generations).digest, flush=True) for seed in (21, 7) \
	for name, w in worker.WORKLOADS.items()]"

# Kill-and-restart parity battery with the runtime sanitizers armed:
# byte-identical traces + bit-identical online error bars after a
# mid-run kill, and the run CLI's --resume (CI's restart-determinism
# job runs the same file list).
restart-check:
	PYTHONPATH=src REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q \
		tests/integration/test_restart_parity.py \
		tests/output/test_stream.py tests/output/test_runstate.py \
		tests/stats/test_online.py tests/test_run_cli.py

# Per-figure/table paper benchmarks (pytest-benchmark harness).
bench-figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

report:
	$(PYTHON) examples/reproduce_all.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/miniqmc_demo.py -n 48 -s 1
	$(PYTHON) examples/memory_and_energy.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis reports build dist
