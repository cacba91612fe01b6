# Music-Defined Networking reproduction — convenience targets.

PYTHON ?= python

.PHONY: install test bench bench-micro bench-fleet bench-workload bench-chaos obs examples figures render-all clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Before/after timings of the vectorized listening hot path (Goertzel
# bank, batched spectrogram) and the vectorized acoustic render path
# (interval-indexed channel, 50/200-emitter sweeps).  Results are
# appended as JSON to .benchmarks/micro_perf.json (override with
# MICRO_BENCH_JSON=path); the channel render timings are additionally
# written to .benchmarks/BENCH_channel.json (override with
# BENCH_CHANNEL_JSON=path).  BLAS is pinned to one thread, as
# bench/run.py pins it for its children: a multi-threaded OpenBLAS
# oversubscribes a small host and swamps the Goertzel bank timings.
bench-micro:
	OPENBLAS_NUM_THREADS=1 \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest \
		benchmarks/test_micro_performance.py -m perf -q -s

# Fleet scaling curve (XEXT15): 1000 switches across 50 sharded rooms,
# serial reference vs process pool, shard sweep + identity checks.
# Writes .benchmarks/BENCH_fleet.json (override with
# BENCH_FLEET_JSON=path; SMOKE=1 runs the shrunken CI fleet).
bench-fleet:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro run \
		xext15 $(if $(SMOKE),--smoke)

# Workload benchmark (XEXT16): seeded traffic mixes swept into detector
# precision/recall, vectorized-driver scale points (up to 10^6 flows)
# and the >=10x speedup check against the per-flow reference.  Writes
# .benchmarks/BENCH_workload.json (override with
# BENCH_WORKLOAD_JSON=path; SMOKE=1 shrinks the mixes for CI).
bench-workload:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro run \
		xext16 $(if $(SMOKE),--smoke)

# Chaos sweep (XEXT17): process-level faults (crashes, hard pool
# breaks, stragglers, poison, duplicates) against the supervised
# fleet; verifies exact recovery (bit-identical to the fault-free
# serial reference) and reports recovery overhead per fault mix.
# Writes .benchmarks/BENCH_chaos.json (override with
# BENCH_CHAOS_JSON=path; SMOKE=1 shrinks the fleet and sleeps for CI).
bench-chaos:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro run \
		xext17 $(if $(SMOKE),--smoke)

# Instrumented run of one experiment (default fig5ab) under repro.obs:
# prints the metric/trace report and exports .benchmarks/OBS_<fig>.json.
obs:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro obs \
		$(or $(FIG),fig5ab)

figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) $$script \
			> /dev/null && echo OK || exit 1; \
	done

render-all:
	@mkdir -p renders
	@for scene in knock chirps fan song; do \
		$(PYTHON) -m repro render $$scene renders/$$scene.wav; \
	done

clean:
	rm -rf renders .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
