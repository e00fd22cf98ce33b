"""Cluster assembly and the common system interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.replication.recovery import Checkpoint
from repro.sim.config import ClusterConfig
from repro.sim.core import Environment
from repro.sim.network import Network
from repro.sim.rand import RandomStreams
from repro.sim.resources import Resource
from repro.sites.activity import PartitionActivity
from repro.sites.data_site import DataSite
from repro.transactions import Transaction
from repro.versioning.vectors import VersionVector

#: Simulated cores for the site-selector (router) machine.
SELECTOR_CORES = 8
#: Router work to look up and lock partition metadata (simulated ms).
ROUTE_LOOKUP_MS = 0.005


class Cluster:
    """A set of simulated data sites sharing a network and a clock.

    With ``replicated=True`` (default) every site lazily maintains a
    full replica via the durable logs; with ``replicated=False`` the
    sites are partition stores holding only their own master copies
    (used by the partition-store and LEAP comparators). Replicas hold
    the same rows, so a replicated cluster's sites share one key ->
    row-number map per table; a partitioned cluster's sites keep their
    own (:mod:`repro.storage.table`). The replica group's logs keep only
    the suffix after its :class:`~repro.replication.recovery.Checkpoint`.
    """

    def __init__(self, config: Optional[ClusterConfig] = None, replicated: bool = True,
                 obs=None):
        self.config = config or ClusterConfig()
        self.replicated = replicated
        self.env = Environment(obs=obs)
        #: The observability handle (``NULL_OBS`` unless observed).
        self.obs = self.env.obs
        self.streams = RandomStreams(self.config.seed)
        self.network = Network(self.env)
        self.activity = PartitionActivity(self.env)
        #: The installed fault injector, or None (nothing can fail).
        #: Routers ask :meth:`health` rather than test it (DESIGN.md §7).
        self.faults = None
        #: Whether reads race a backup replica; the injector sets it
        #: from its RPC config at install.
        self.hedged_reads = False
        row_index = {} if replicated else None
        self.sites: List[DataSite] = [
            DataSite(
                self.env,
                index,
                self.config.num_sites,
                self.config,
                self.network,
                self.activity,
                replicated=replicated,
                row_index=row_index,
            )
            for index in range(self.config.num_sites)
        ]
        #: The replica group's folded log prefix (None when partitioned).
        self.checkpoint = Checkpoint(self.sites) if replicated else None
        for site in self.sites:
            site.connect(self.sites)
            # A partitioned site's store survives its crash, so it is its
            # own checkpoint (§V-C) and its log keeps counters only.
            site.log.on_append = (
                self.checkpoint.note_append if replicated else site.log.records.clear
            )

    @property
    def num_sites(self) -> int:
        return self.config.num_sites

    def health(self, index: int) -> float:
        """Graded confidence that site ``index`` can serve, in [0, 1].

        1.0 without an injector, 0.0 for a down site, otherwise the
        failure detector's graded health — 0 exactly when suspicion
        trips — so a site is *healthy* when this is ``> 0``. Asking may
        update a phi-accrual detector's suspicion state.
        """
        if self.faults is None:
            return 1.0
        if not self.sites[index].alive:
            return 0.0
        return self.faults.detector.health(index)

    def place_partitions(self, placement: Dict[int, int]) -> None:
        """Assign initial mastership: partition id -> site index."""
        for site in self.sites:
            site.mastered.clear()
        for partition, site_index in placement.items():
            self.sites[site_index].mastered.add(partition)


@dataclass
class Session:
    """One client's session state for strong-session SI."""

    client_id: int
    cvv: VersionVector

    def observe(self, version: VersionVector) -> None:
        """Fold a transaction's observed/created version into the session."""
        self.cvv.merge(version)


class System(ABC):
    """Common interface of the five evaluated architectures."""

    #: Short name used in reports.
    name: str = "abstract"
    #: Whether this architecture maintains replicas at every site.
    replicated: bool = True

    def __init__(self, cluster: Cluster):
        if cluster.replicated != self.replicated:
            raise ValueError(
                f"{self.name} requires a cluster with replicated={self.replicated}"
            )
        self.cluster = cluster
        self.env = cluster.env
        self.obs = cluster.obs
        self.network = cluster.network
        self.config = cluster.config
        self.sites = cluster.sites
        self.streams = cluster.streams
        #: Router/front-end machine for the comparator systems (DynaMast
        #: uses its site selector's CPU instead).
        self.router_cpu = Resource(self.env, SELECTOR_CORES)

    def new_session(self, client_id: int) -> Session:
        return Session(client_id, VersionVector.zeros(self.cluster.num_sites))

    @abstractmethod
    def submit(self, txn: Transaction, session: Session) -> Generator:
        """Process one transaction; a generator returning an :class:`Outcome`."""

    # -- shared helpers ------------------------------------------------------

    def client_hop(self, txn: Transaction) -> Generator:
        """One client-to-system network traversal (a 128-byte message),
        accounted to the txn."""
        env = self.env
        delay = self.network.delay_for(128)
        self.network.account("client", 128)
        started = env._now
        yield env.timeout(delay)
        txn.add_timing("network", delay)
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.span("network", started, env._now,
                        track="net", txn=txn, category="client")


def choose_fresh_site(cluster: Cluster, session: Session, rng) -> int:
    """Read routing (paper §IV-B): a random session-fresh site.

    Among sites whose version vector dominates the client's session
    vector, pick uniformly at random — minimizing blocking while
    spreading read load. If no site is fresh enough yet, pick the site
    with the smallest lag; the read then blocks briefly at that site.

    Unhealthy (:meth:`Cluster.health`) sites are routed around,
    falling back to merely-alive sites if suspicion covers everything.
    Each live site is asked once, in index order: asking updates the
    phi-accrual detector's state.
    """
    sites = cluster.sites
    candidates = (
        [site for site in sites if cluster.health(site.index) > 0]
        or [site for site in sites if site.alive]
        or sites
    )
    fresh = [site.index for site in candidates if site.svv.dominates(session.cvv)]
    if fresh:
        return fresh[rng.randrange(len(fresh))]
    return min(candidates, key=lambda site: site.svv.lag_behind(session.cvv)).index
