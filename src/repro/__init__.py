"""DynaMast: Adaptive Dynamic Mastering for Replicated Systems.

A complete reproduction of the ICDE 2020 paper by Abebe, Glasbergen and
Daudjee, built on a deterministic discrete-event simulation substrate.

Public API tour:

* :func:`repro.systems.build_system` / :class:`repro.systems.Cluster` —
  assemble any of the five evaluated architectures;
* :class:`repro.core.SiteSelector` — the dynamic-mastering site
  selector (Algorithm 1 + the Eq. 2-8 strategies);
* :mod:`repro.workloads` — modified YCSB, TPC-C, SmallBank;
* :func:`repro.bench.run_benchmark` — one measured run;
* :func:`repro.bench.parallel.execute_specs` — a matrix of ``RunSpec``
  rows, in-process or over worker processes;
* :mod:`repro.bench.experiments` — drivers for every evaluation figure;
* :mod:`repro.obs` — the tracer and sampler; the recorders live in
  :mod:`repro.obs.mastery` and :mod:`repro.obs.slo`.

Package ``__init__`` files re-export only what every run executes;
everything else is imported from its defining module.
"""

from repro.bench import run_benchmark
from repro.systems import Cluster, Session, System, build_system
from repro.transactions import Key, Outcome, Transaction

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "Key",
    "Outcome",
    "Session",
    "System",
    "Transaction",
    "build_system",
    "run_benchmark",
    "__version__",
]
