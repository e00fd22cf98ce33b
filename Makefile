# Convenience targets for the DynaMast reproduction.

.PHONY: install test test-output lint bench bench-output examples quick chaos chaos-gray explain-smoke masters-smoke slo-smoke perf perf-check perf-sweep scale scale-smoke pairs clean

# Worker processes for parallel-capable targets (scale, test with
# pytest-xdist installed). 1 = classic serial behavior.
JOBS ?= 1

# Top jobs level of the perf target's sweep (runs {1, 2, CORES}).
CORES ?= 2

install:
	pip install -e . || python setup.py develop

# Uses pytest-xdist when installed (and JOBS != 1); falls back to the
# plain serial run otherwise so the tier-1 command works everywhere.
test:
	@if [ "$(JOBS)" != "1" ] && python -c "import xdist" 2>/dev/null; then \
		python -m pytest tests/ -n $(JOBS); \
	else \
		python -m pytest tests/; \
	fi

lint:
	ruff check src tests tools benchmarks examples

test-output:
	python -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	python -m pytest benchmarks/ --benchmark-only -s

bench-output:
	python -m pytest benchmarks/ --benchmark-only -s 2>&1 | tee bench_output.txt

# Every script under examples/ (the last three take 10-30 s each).
examples:
	python examples/quickstart.py
	python examples/protocol_walkthrough.py
	python examples/recovery_demo.py
	python examples/adaptivity_demo.py
	python examples/tpcc_latency.py
	python examples/ycsb_comparison.py

quick:
	python -m repro compare --clients 16 --duration 500

# One short fault scenario per system: exercises crash/restart rejoin,
# partition routing, and lossy-link retries end to end.
chaos:
	python -m repro chaos --system dynamast --scenario crash-restart --duration 3000 --clients 8
	python -m repro chaos --system single-master --scenario crash --duration 2000 --clients 8
	python -m repro chaos --system multi-master --scenario partition --duration 2000 --clients 8
	python -m repro chaos --system partition-store --scenario lossy --duration 2000 --clients 8
	python -m repro chaos --system leap --scenario crash-restart --duration 2000 --clients 8

# Gray-failure sweep: every system through every gray scenario
# (fail-slow master, degraded WAN link, flapping site, gray storm)
# with the adaptive defenses armed — phi-accrual detection, adaptive
# deadlines, hedged reads, health-aware remastering — at two seeds,
# plus the headline fixed-vs-adaptive comparison on the fail-slow
# master (EXPERIMENTS.md, Gray failures). --masters attaches the
# decision ledger so the matrix reports whether mastership
# re-converged after the fault. Leaves chaos_gray_seed*.csv timelines
# for CI to upload.
chaos-gray:
	for seed in 0 1; do \
		python -m repro chaos \
			--systems dynamast,single-master,multi-master,partition-store,leap \
			--scenarios fail_slow_master,degraded_wan_link,flapping_site,gray_storm \
			--defenses adaptive --masters --duration 5000 --clients 8 --jobs 2 \
			--seed $$seed --out chaos_gray_seed$$seed.csv || exit 1; \
	done
	python -m repro chaos --system dynamast --scenario fail_slow_master \
		--defenses fixed --duration 5000 --clients 8
	python -m repro chaos --system dynamast --scenario fail_slow_master \
		--defenses adaptive --masters --duration 5000 --clients 8

# Tiny observed run asserting the attribution invariant: the budget
# categories must sum to ~100% of measured commit latency (DESIGN.md
# §6.5). Leaves explain_report.json for CI to upload as an artifact.
explain-smoke:
	python -m repro explain --system dynamast --clients 4 --duration 300 --sites 2 --seed 7 --export explain_report.json
	python -c "import json; r = json.load(open('explain_report.json')); \
	  assert abs(r['coverage'] - 1.0) < 1e-6, r['coverage']; \
	  total = sum(r['aggregate']['categories'].values()); \
	  assert abs(total - r['total_latency_ms']) < 1e-6, (total, r['total_latency_ms']); \
	  print('explain-smoke OK:', r['txn_count'], 'txns, coverage %.6f' % r['coverage'])"

# Prometheus exposition gate of the recorder smokes (arguments: the
# file, a family it must contain): one `# TYPE` line per family, and
# every sample line parses as `name{labels} value`.
PROM_CHECK = python -c "import re, sys; \
  lines = open(sys.argv[1]).read().splitlines(); \
  types = [line.split()[2] for line in lines if line.startswith('\# TYPE ')]; \
  assert len(types) == len(set(types)), 'a family has more than one TYPE line'; \
  samples = [line for line in lines if not line.startswith('\#')]; \
  bad = [line for line in samples if not re.fullmatch(r'[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? \S+', line)]; \
  assert not bad, bad[:3]; \
  [float(line.rsplit(' ', 1)[1]) for line in samples]; \
  assert sys.argv[2] in {re.split(r'[{ ]', line)[0] for line in samples}, sys.argv[2]; \
  print('prometheus OK:', sys.argv[1], len(types), 'families,', len(samples), 'samples')"

# Ledger round-trip gate: a short skewed run must record decisions,
# export them (repro-masters/1 JSONL), and the export must reconstruct
# the run — loadable header, offline-recomputable decisions, and a
# final placement consistent with the recorded ownership changes
# (DESIGN.md §6.6). Leaves masters_ledger.jsonl for CI to upload.
masters-smoke:
	python -m repro masters --system dynamast --skew 0.9 --clients 8 --duration 400 --seed 7 --export-jsonl masters_ledger.jsonl --export-csv masters_rate.csv --prometheus masters.prom
	$(PROM_CHECK) masters.prom repro_masters_decisions_total
	python -c "from repro.obs.export import load_jsonl; from repro.obs.mastery import recompute_decision; \
	  data = load_jsonl('masters_ledger.jsonl'); \
	  header, decisions = data['header'], data['decisions']; \
	  assert decisions, 'no decisions recorded'; \
	  assert all(recompute_decision(d)[1] for d in decisions), 'offline recompute mismatch'; \
	  assert header['partitions_moved'] == len(data['changes']), 'totals disagree'; \
	  print('masters-smoke OK:', len(decisions), 'decisions,', len(data['changes']), 'ownership changes round-tripped')"

# SLO gate (DESIGN.md §6.7): a fail-slow gray run with the streaming
# monitors attached must detect the injected fault window (>= 1
# true-positive incident, no missed spans), hold all four runtime
# invariants, and leave a repro-slo/1 ledger plus a self-contained
# HTML dashboard for CI to upload. The second step re-runs the same
# spec with and without the engine and pins the fingerprints
# bit-identical: monitoring never changes a run.
# (6000 ms, not shorter: with the adaptive defenses armed — the
# default, and the config the tests pin — a briefer fail-slow window
# is masked so well by hedging/health-aware remastering that the
# burn-rate gate rightly stays quiet.)
slo-smoke:
	python -m repro slo --system dynamast --scenario fail_slow_master \
		--duration 6000 --clients 8 --quick \
		--html slo_dashboard.html --export-jsonl slo_incidents.jsonl \
		--prometheus slo.prom
	$(PROM_CHECK) slo.prom repro_slo_true_positives
	python -c "from repro.obs.export import load_jsonl; import os; \
	  data = load_jsonl('slo_incidents.jsonl'); header = data['header']; \
	  assert header['true_positives'] >= 1, header; \
	  assert header['violations'] == 0, header; \
	  assert header['missed_faults'] == 0, header; \
	  assert data['spans'] and all(s['detected'] for s in data['spans']), data['spans']; \
	  assert os.path.getsize('slo_dashboard.html') > 0; \
	  print('slo-smoke OK: %d true positive(s), MTTD %.0f ms' \
	        % (header['true_positives'], header['mttd_mean_ms']))"
	python -c "from repro.bench.parallel import run_fingerprint; \
	  from repro.faults.chaos import run_chaos; \
	  from repro.obs.slo import quick_slos; \
	  kw = dict(num_clients=8, duration_ms=2000.0); \
	  off = run_chaos('dynamast', 'fail_slow_master', **kw).result; \
	  on = run_chaos('dynamast', 'fail_slow_master', slo=quick_slos(), **kw).result; \
	  a, b = run_fingerprint(off), run_fingerprint(on); \
	  assert a == b, (a, b); \
	  print('slo-smoke OK: slo-ON fingerprint == slo-OFF (%s)' % a)"

# Refresh BENCH_perf.json (DESIGN.md §8): the nine pinned cases'
# fingerprints / sim_events / commits from the jobs=1 pass, plus the
# fan-out sweep at jobs levels {1, 2, CORES} with the pins required
# equal between levels (EXPERIMENTS.md, Parallel execution). Needed
# only when simulated behaviour or the matrix changed; host cost is
# claimed with `make pairs`, never from this file.
perf perf-sweep:
	python -m repro perf --cores $(CORES)

# Exact gate against the committed BENCH_perf.json: the full matrix's
# fingerprints, sim_events and commits must be identical; no timing is
# read. Nonzero exit names each case and field that differs.
perf-check:
	python -m repro perf --check

# Full open-loop saturation matrix; refreshes BENCH_scale.json with
# every system's knee ladder plus the flagship 16-site / 100k-client /
# 1M-key diurnal case (docs/SCALE.md).
scale:
	python -m repro perf --scale --jobs $(JOBS)

# Capacity-determinism gate against the committed BENCH_scale.json:
# the five cheap per-system ladders at --jobs 2 must fingerprint
# bit-identically to the committed report (simulated results are
# machine-independent) and each rung must fit its peak-RSS budget.
scale-smoke:
	python -m repro perf --scale --smoke --check --jobs 2

# Alternated perfbench-child pairs, BASE (a git revision, unpacked
# into a temporary directory) against the working tree: the measurement
# a host-cost claim rests on (CONTRIBUTING.md, "Claiming a gain").
#   make pairs W=ycsb-2pc BASE=HEAD~1 N=10 SEED=11
# A recorder's ON cost in the two trees (R is one of perfbench's
# recorders: tracer, ledger, slo, streaming_metrics):
#   make pairs W=recorder-cost R=tracer BASE=HEAD~1
# A row of the `repro perf` matrix, for the systems perfbench does not
# run (LEAP, single-master, multi-master):
#   make pairs CASE=leap-ycsb BASE=HEAD~1
W ?= ycsb-2pc
CASE ?=
BASE ?= HEAD
N ?= 10
SEED ?= 11
R ?= off
pairs:
	python tools/pairs.py $(if $(CASE),--case $(CASE),--workload $(W)) --base $(BASE) --pairs $(N) --seed $(SEED) --recorder $(R)

clean:
	rm -rf .pytest_cache build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
