"""Benchmark workloads (paper §VI-A.2, Appendices C and F).

* :class:`~repro.workloads.ycsb.YCSBWorkload` — the paper's modified
  YCSB: 100-key partitions, multi-partition scans (200–1000 keys),
  3-key read-modify-writes with Bernoulli-neighbour partition
  selection, optional Zipfian skew, client affinity periods, and a
  shuffled-correlation mode for the adaptivity experiment;
* :class:`~repro.workloads.tpcc.TPCCWorkload` — New-Order, Payment and
  Stock-Level with configurable cross-warehouse fractions;
* :class:`~repro.workloads.smallbank.SmallBankWorkload` — short
  banking transactions (45% single-row updates, 40% two-row updates,
  15% balance reads).
"""

from repro.workloads.base import ClientTurn, Workload
from repro.workloads.openloop import OpenLoopEngine, OpenLoopSpec
from repro.workloads.smallbank import SmallBankConfig, SmallBankWorkload
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload
from repro.workloads.ycsb import YCSBClientPool, YCSBConfig, YCSBWorkload

#: Registry of buildable workloads: name -> (config class, workload
#: class). This is what lets a :class:`~repro.bench.parallel.RunSpec`
#: describe a workload as pure data (name + config kwargs) and have a
#: worker process rebuild it — the spawn-safety contract
#: (CONTRIBUTING.md) requires every spec-referenced constructor to be
#: module-level like these.
WORKLOAD_REGISTRY = {
    "ycsb": (YCSBConfig, YCSBWorkload),
    "tpcc": (TPCCConfig, TPCCWorkload),
    "smallbank": (SmallBankConfig, SmallBankWorkload),
}


def build_workload(name: str, **params) -> Workload:
    """Instantiate a fresh registered workload from plain parameters.

    Raises ``ValueError`` naming the unknown workload (and the known
    ones) so multi-process drivers surface a clean, attributable error
    instead of an opaque worker failure.
    """
    try:
        config_cls, workload_cls = WORKLOAD_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOAD_REGISTRY))
        raise ValueError(
            f"unknown workload {name!r}; registered workloads: {known}"
        ) from None
    return workload_cls(config_cls(**params))


__all__ = [
    "WORKLOAD_REGISTRY",
    "build_workload",
    "ClientTurn",
    "OpenLoopEngine",
    "OpenLoopSpec",
    "SmallBankConfig",
    "SmallBankWorkload",
    "TPCCConfig",
    "TPCCWorkload",
    "Workload",
    "YCSBClientPool",
    "YCSBConfig",
    "YCSBWorkload",
]
