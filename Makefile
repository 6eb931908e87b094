# Convenience targets for the ConVGPU reproduction.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test stress bench bench-concurrency bench-journal bench-recovery perf perf-trace perf-compare churn crash check lint analyze san

test:            ## tier-1: fast unit/integration/property tests
	$(PYTHON) -m pytest -x -q

stress:          ## deep randomized fault-injection lane
	$(PYTHON) -m pytest -m stress -q

bench:           ## regenerate every table & figure
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-concurrency:  ## codec x pipeline-depth scaling table (8/64/256 containers)
	$(PYTHON) -m pytest benchmarks/test_bench_concurrency.py -q -s

bench-journal:   ## journal ablation: fsync-under-lock vs group commit
	$(PYTHON) -m pytest benchmarks/test_bench_ablation_journal.py -q -s

bench-recovery:  ## recovery at scale: compaction vs journal size / restore time
	$(PYTHON) -m pytest benchmarks/test_bench_recovery.py -q -s

perf:            ## the repo's benchmark (BENCHMARK.json): five workloads, 20 s each; OUT=f.json appends the runs
	$(PYTHON) benchmarks/perf/run.py $(if $(OUT),--out $(OUT))

perf-trace:      ## the same workloads traced: the per-layer metrics
	$(PYTHON) benchmarks/perf/run.py --trace $(if $(OUT),--out $(OUT))

perf-compare:    ## medians, ratio (base A) and verdicts of two result files: make perf-compare A=a.json B=b.json
	$(PYTHON) benchmarks/perf/compare.py $(A) $(B)

churn:           ## connection-churn / lifecycle-leak lane under a hard deadline
	timeout 600 $(PYTHON) -m pytest tests/ipc/test_connection_churn.py \
		tests/core/test_daemon_lifecycle.py -q

crash:           ## daemon-crash fault-injection experiment (exit 0 = recovered)
	$(PYTHON) -m repro crash

lint:            ## ruff lint (same rules as CI; needs ruff installed)
	$(PYTHON) -m ruff check src tests benchmarks

analyze:         ## reprolint: AST invariant checker (DESIGN.md §12); no deps
	$(PYTHON) -m repro lint src

san:             ## reprosan: churn + fault-injection suites under the lockset race sanitizer (DESIGN.md §16)
	timeout 900 $(PYTHON) -m repro san -- -q \
		tests/ipc/test_connection_churn.py \
		tests/core/test_daemon_lifecycle.py \
		tests/core/test_journal_properties.py \
		tests/integration/test_failure_injection.py \
		tests/integration/test_concurrency_stress.py

check: test crash analyze  ## the quick local gate: tier-1 tests + crash recovery + reprolint (CI also runs san and the bench smokes)
