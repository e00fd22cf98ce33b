"""Start the children, gate their outputs, and turn repeats into metrics.

The driver never imports ``repro``: it stays small, so a child's
``ru_maxrss`` (which the kernel floors at the parent's high-water mark
across ``exec``) is the workload's own.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import spec

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
BASELINE = ROOT / "perfbench" / "baseline.json"

#: Timed repeats of the one seed the report runs.
REPEATS = 3
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """A child failed or the checkout cannot run the benchmark."""


class Host:
    """The machine, and whether something *else* is keeping it busy.

    ISSUE 11 asks for the 1-minute load average against ``nproc - 1``,
    but the children this benchmark runs are themselves ~1.0 of that
    average, and the runs of a sweep come back to back: on this 2-core
    host every repeat after the fifth minute read as contended. What is
    compared is therefore ``/proc/stat``: the cores busy *right now*,
    sampled while the driver sleeps before a child, and the cores the
    hypervisor stole while the child ran (a neighbour of the VM, which
    shows nowhere else: one such spell doubled ``wall_s`` for minutes).
    The load average is printed for the record.
    """

    SAMPLE_S = 0.1
    #: Stolen cores above which a child's timings are called contended.
    MAX_STOLEN_CORES = 0.05

    def __init__(self):
        self.nproc = os.cpu_count() or 1

    @staticmethod
    def cpu_ticks():
        """(busy, stolen, total) jiffies summed over all cores; zeros
        where there is no ``/proc/stat`` (contention cannot be seen
        there, so is not claimed)."""
        try:
            with open("/proc/stat") as handle:
                fields = [int(field) for field in handle.readline().split()[1:]]
        except OSError:
            return 0, 0, 0
        idle = fields[3] + fields[4]  # idle + iowait
        return sum(fields) - idle, fields[7], sum(fields)

    def cores(self, before, after):
        """(busy, stolen) cores between two ``cpu_ticks`` readings."""
        elapsed = after[2] - before[2]
        if not elapsed:
            return 0.0, 0.0
        return (self.nproc * (after[0] - before[0]) / elapsed,
                self.nproc * (after[1] - before[1]) / elapsed)

    def busy_cores(self) -> float:
        before = self.cpu_ticks()
        time.sleep(self.SAMPLE_S)
        return self.cores(before, self.cpu_ticks())[0]

    def contended(self, busy_before: float, stolen: float) -> bool:
        return busy_before > self.nproc - 1 or stolen > self.MAX_STOLEN_CORES

    def stanza(self) -> Dict[str, object]:
        return {
            "nproc": self.nproc,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_1m": os.getloadavg()[0],
        }


def child_env() -> Dict[str, str]:
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def require_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"{ROOT} has no src/repro: perfbench measures the simulator in "
            "the checkout it sits in and cannot run without it"
        )


def spawn(host: Host, workload: str, seed: int, scale: float, *,
          traced: bool = False, recorder: str = "off") -> Dict[str, object]:
    """One child, start to exit; returns its JSON record."""
    busy = host.busy_cores()
    ticks = host.cpu_ticks()
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--recorder", recorder, "--spawned-at", repr(time.time()),
    ]
    if traced:
        command.append("--traced")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"{workload}: child exceeded {CHILD_TIMEOUT_S} s"
        ) from None
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload}: child exited {done.returncode}\n{done.stderr.strip()}"
        )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["busy_cores_before"] = busy
    record["stolen_cores"] = host.cores(ticks, host.cpu_ticks())[1]
    record["loadavg_1m"] = os.getloadavg()[0]
    record["contended"] = host.contended(busy, record["stolen_cores"])
    return record


def repeat(host: Host, workload: str, seed: int, scale: float) -> Dict[str, object]:
    """One timed repeat; re-run once if something else held the cores."""
    record = spawn(host, workload, seed, scale)
    if record["contended"]:
        print(f"  {workload}: {record['busy_cores_before']:.2f} cores busy before, "
              f"{record['stolen_cores']:.2f} stolen during: repeat marked contended, "
              "re-running once")
        record = spawn(host, workload, seed, scale)
    return record


def sub_seeds(workload: str, seed: int, seconds: float) -> List[int]:
    """The inputs one ``--seed`` stands for: ``CHILDREN[workload]`` distinct
    seeds at the nominal ``RUN_SECONDS``, fewer for a shorter budget.

    Simulated results swing from seed to seed (on ``ycsb-2pc`` the hottest
    site's share of 32 clients is luck), so one run per ``--seed`` would
    make every metric as noisy as that luck; the median over a few
    disjoint seeds is what a run reports.
    """
    count = round(spec.CHILDREN[workload] * seconds / spec.RUN_SECONDS)
    count = min(max(1, count), spec.SEED_STRIDE)
    return [seed * spec.SEED_STRIDE + index + 1 for index in range(count)]


# -- correctness gate ----------------------------------------------------------


def gate(workload: str, records: List[Dict[str, object]]) -> List[str]:
    """Why this workload's outputs are wrong; empty when they are right.

    Repeats of one seed must agree on every fingerprint, count and
    simulated metric; every run must commit, conserve its open-loop
    arrivals, and (``chaos-observed``) recover without an invariant
    violation.
    """
    failures: List[str] = []
    first_of_seed: Dict[int, Dict[str, object]] = {}
    for index, record in enumerate(records, start=1):
        first = first_of_seed.setdefault(record["seed"], record)
        if record is first:
            continue
        for name, value in exact_counts(first).items():
            if record["counts"][name] != value:
                failures.append(
                    f"{name} differs in repeat {index}: "
                    f"{record['counts'][name]} != {value}"
                )
        for metric in spec.END_TO_END:
            if metric.simulated and \
                    record["end_to_end"][metric.name] != first["end_to_end"][metric.name]:
                failures.append(f"{metric.name} differs in repeat {index}")
        if fingerprints(record) != fingerprints(first):
            failures.append(f"fingerprints differ in repeat {index}")
    for run in (run for record in records for run in record["runs"]):
        if run["commits"] <= 0:
            failures.append("a run committed nothing")
        counters = run.get("open_loop")
        if counters:
            if counters["offered"] != counters["admitted"] + counters["shed"]:
                failures.append("open loop: offered != admitted + shed")
            if counters["admitted"] != counters["taken"] + counters["queued_end"]:
                failures.append("open loop: admitted != taken + queued_end")
    if workload == "chaos-observed":
        for record in records:
            if not record["recovered"]:
                failures.append(f"seed {record['seed']} did not recover")
            if record["counts"]["obs.slo_violations"] != 0:
                failures.append(
                    f"seed {record['seed']}: "
                    f"{record['counts']['obs.slo_violations']} runtime invariant violations"
                )
    return [f"{workload}: {failure}" for failure in failures]


def fingerprints(record: Dict[str, object]) -> List[str]:
    return [run["fingerprint"] for run in record["runs"]]


def exact_counts(record: Dict[str, object]) -> Dict[str, float]:
    """The counts that must repeat exactly (all but the host-time rate)."""
    return {name: value for name, value in record["counts"].items()
            if name not in spec.HOST_COUNTS}


def pinned_fingerprints(workload: str, seed: int) -> Optional[List[str]]:
    """The fingerprints ``baseline.json`` pins for this workload and seed."""
    try:
        baseline = json.loads(BASELINE.read_text())
    except FileNotFoundError:
        return None
    if baseline.get("seed") != seed:
        return None
    entry = baseline.get("workloads", {}).get(workload)
    return entry["fingerprints"] if entry else None


# -- repeats -> metrics --------------------------------------------------------


def end_to_end(records: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per metric: median over repeats, with min, max and sample count."""
    return {
        metric.name: spec.summarize(
            [record["end_to_end"][metric.name] for record in records]
        )
        for metric in spec.END_TO_END
    }


def per_layer(host: Host, workload: str, seed: int, scale: float,
              untraced: List[Dict[str, object]],
              on_ratios: Dict[str, float]):
    """The per-layer ledger: one traced child folded by layer, the counts
    of the untraced runs, and the recorder ON costs. Returns the values
    and the traced child's record (for the gate)."""
    traced = spawn(host, workload, seed, scale, traced=True)
    values: Dict[str, float] = {}
    for layer, row in traced["layers"].items():
        for suffix in ("self_s", "calls", "self_share"):
            values[f"{layer}.{suffix}"] = row[suffix]
    for phase in spec.PHASES:
        values[f"bench.{phase}"] = traced["phases"][phase]
    untraced_wall = spec.summarize(
        [record["end_to_end"]["wall_s"] for record in untraced]
    )["median"]
    values["trace.overhead_ratio"] = traced["end_to_end"]["wall_s"] / untraced_wall
    values.update(untraced[0]["counts"])
    values["sim.core.events_per_host_s"] = spec.summarize(
        [record["counts"]["sim.core.events_per_host_s"] for record in untraced]
    )["median"]
    values["bench.fingerprint_match"] = int(
        fingerprints(untraced[0]) == pinned_fingerprints(workload, seed)
    )
    values.update({f"obs.on_ratio.{name}": ratio for name, ratio in on_ratios.items()})

    profiled = sum(row["self_s"] for row in traced["layers"].values())
    spans = sum(traced["phases"][phase] for phase in ("build_s", "simulate_s", "fold_s"))
    coverage = profiled / spans
    if traced["unmapped"]:
        print(f"  {workload}: unmapped {traced['unmapped']}")
    if abs(coverage - 1.0) > 0.02:
        print(f"  {workload}: layer self times cover {coverage:.3f} of the traced spans")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}.trace.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "scale": scale,
        "phases": traced["phases"], "layers": traced["layers"],
        "unmapped": traced["unmapped"], "coverage": coverage,
        "overhead_ratio": values["trace.overhead_ratio"],
        "hottest": traced["hottest"],
    }, indent=1))
    return values, traced


def recorder_costs(host: Host, seed: int, scale: float):
    """ON wall / OFF wall per recorder (one child each), and gate failures.

    OFF runs first and last and the ratios' base is the mean of the
    two, so a drift of the host across the six children cancels.
    """
    off = spawn(host, "recorder-cost", seed, scale)
    on = {recorder: spawn(host, "recorder-cost", seed, scale, recorder=recorder)
          for recorder in spec.RECORDERS}
    off_again = spawn(host, "recorder-cost", seed, scale)
    base = (off["end_to_end"]["wall_s"] + off_again["end_to_end"]["wall_s"]) / 2
    ratios = {recorder: record["end_to_end"]["wall_s"] / base
              for recorder, record in on.items()}
    failures = [
        f"recorder {recorder} ON changed the run's fingerprint"
        for recorder, record in on.items()
        if fingerprints(record) != fingerprints(off)
    ]
    return ratios, failures


# -- the two ways to run -------------------------------------------------------


def run_contract(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload for a later PR's driver; the last line is its JSON."""
    require_checkout()
    host = Host()
    print(f"host: {host.stanza()}")
    seeds = sub_seeds(workload, seed, seconds)
    if trace:
        records = [spawn(host, workload, seeds[0], 1.0)]
        on_ratios, failures = recorder_costs(host, seeds[0], 1.0)
        values, traced = per_layer(host, workload, seeds[0], 1.0, records, on_ratios)
        records.append(traced)  # same seed: profiling must not change the run
        table = spec.PER_LAYER
    else:
        # No re-runs here: a contended child is marked, not repeated. A
        # busy spell outlasts a run, so its re-run is as slow, and the
        # 114 runs a later PR's driver makes share one time cap.
        records = [spawn(host, workload, sub_seed, 1.0) for sub_seed in seeds]
        failures = []
        values = {name: row["min" if name in spec.FASTEST_CHILD else "median"]
                  for name, row in end_to_end(records).items()}
        table = spec.END_TO_END
        print(f"{workload}: seeds {seeds}, one child each, "
              f"{sum(bool(r['contended']) for r in records)} contended")
        for record in records:
            print(f"  seed {record['seed']}: " + ", ".join(
                f"{name} {value:.6g}" for name, value in record["end_to_end"].items()))
    failures += gate(workload, records)
    for failure in failures:
        print(f"GATE: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in table
        },
    }))
    return 1 if failures else 0


def calibrate_kops() -> float:
    """``repro.bench.perf.calibrate()`` in a child (the driver stays lean)."""
    done = subprocess.run(
        [sys.executable, "-c",
         "from repro.bench.perf import calibrate; print(calibrate())"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    return float(done.stdout.strip())


def timed_pass(host: Host, seed: int, scale: float):
    """Every workload's timed repeats; returns ``(records, failures)``."""
    records: Dict[str, List[Dict[str, object]]] = {}
    failures: List[str] = []
    for workload in spec.WORKLOADS:
        records[workload] = [repeat(host, workload, seed, scale) for _ in range(REPEATS)]
        failures += gate(workload, records[workload])
    return records, failures


def compare_passes(first, second):
    """Set B against set A, metric by metric; returns ``(rows, failures)``."""
    print("\nrepeat check: set B against set A (simulated metrics must be equal)")
    rows_of: Dict[str, List[Dict[str, object]]] = {}
    failures: List[str] = []
    for workload in spec.WORKLOADS:
        a, b = ({name: row["median"] for name, row in end_to_end(records[workload]).items()}
                for records in (first, second))
        rows_of[workload] = spec.compare_sets(a, b)
        if exact_counts(second[workload][0]) != exact_counts(first[workload][0]):
            failures.append(f"{workload}: counts differ between set A and set B")
        for row in rows_of[workload]:
            print(f"  {workload:18s} {row['metric']:17s} A={row['a']:<12.6g} "
                  f"B={row['b']:<12.6g} worse_by={row['worse_by']:+.4f} "
                  f"bound={row['bound']:.3f} {'ok' if row['ok'] else 'FAIL'}")
            if not row["ok"]:
                failures.append(f"{workload}: {row['metric']} of set B is outside its bound")
    return rows_of, failures


def run_report(seed: int, smoke: bool, repeat_check: bool, pin: bool) -> int:
    """All five workloads, every metric by name, ``BENCHMARK.json``."""
    require_checkout()
    scale = 0.1 if smoke else 1.0
    host = Host()
    stanza = dict(host.stanza(), calibrate_kops=calibrate_kops())
    print(f"host: {stanza}")
    print(f"seed {seed}, scale {scale}; {REPEATS} timed repeats per workload, "
          "each a fresh interpreter, one at a time")

    records, failures = timed_pass(host, seed, scale)
    on_ratios, recorder_failures = recorder_costs(host, seed, scale)
    failures += recorder_failures
    report = {"seed": seed, "scale": scale, "host": stanza, "workloads": {}}
    for workload, repeats in records.items():
        values, traced = per_layer(host, workload, seed, scale, repeats, on_ratios)
        failures += gate(workload, [repeats[0], traced])
        report["workloads"][workload] = {
            "end_to_end": end_to_end(repeats),
            "per_layer": values,
            "samples": repeats[0]["samples"],
            "attempted": repeats[0]["attempted"],
            "failed": repeats[0]["failed"],
            "fingerprints": fingerprints(repeats[0]),
            "busy_cores_before": [r["busy_cores_before"] for r in repeats],
            "stolen_cores": [r["stolen_cores"] for r in repeats],
            "loadavg_1m": [r["loadavg_1m"] for r in repeats],
            "contended": [bool(r["contended"]) for r in repeats],
        }
    print_report(report)

    if repeat_check:
        second, second_failures = timed_pass(host, seed, scale)
        report["repeat_check"], check_failures = compare_passes(records, second)
        failures += second_failures + check_failures

    for failure in failures:
        print(f"GATE: {failure}")
    report["gate_failures"] = failures
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "report.json").write_text(json.dumps(report, indent=1))
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=1) + "\n")
    if pin and not failures and not smoke:
        BASELINE.write_text(json.dumps(report, indent=1) + "\n")
        print(f"pinned {BASELINE.relative_to(ROOT)}")
    print("gate: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def print_report(report: Dict[str, object]) -> None:
    bounds = {metric.name: metric for metric in spec.END_TO_END}
    for workload, entry in report["workloads"].items():
        print(f"\n== {workload} — {spec.WORKLOADS[workload]}")
        print(f"   {entry['samples']} latency samples; attempted {entry['attempted']}, "
              f"failed {entry['failed']}; per repeat: cores busy before "
              f"{[round(busy, 2) for busy in entry['busy_cores_before']]}, stolen during "
              f"{[round(stolen, 2) for stolen in entry['stolen_cores']]}, 1-min load "
              f"{[round(load, 2) for load in entry['loadavg_1m']]}, contended "
              f"{entry['contended']}")
        if workload == "openloop-dynamast":
            print("   arrivals are scheduled in simulated time: generator lateness "
                  "is 0 by construction")
        print(f"   {'end-to-end metric':22s}{'median':>14s}{'min':>14s}{'max':>14s}"
              f"{'n':>4s}  unit   bound")
        for name, row in entry["end_to_end"].items():
            metric = bounds[name]
            print(f"   {name:22s}{row['median']:14.6g}{row['min']:14.6g}"
                  f"{row['max']:14.6g}{row['n']:4d}  {metric.unit:6s} "
                  f"{metric.bound:.3f} ({metric.better} is better)")
        print("   per-layer metric (traced run and recorder costs n=1; counts exact)")
        for metric in spec.PER_LAYER:
            print(f"   {metric.name:44s}{entry['per_layer'][metric.name]:16.6g}  "
                  f"{metric.unit}")
