"""A Schism-style offline workload-driven partitioner.

Schism (Curino et al., VLDB 2010) models a workload sample as a graph —
nodes are data items (here: partitions), edges connect items co-accessed
by a transaction, weighted by co-access frequency — and computes a
balanced min-cut assignment of nodes to sites so that as few
transactions as possible span sites.

The paper uses Schism offline to pick the placement that favours the
partition-store and multi-master comparators (§VI-A.1). We implement
the same idea: Kernighan–Lin recursive bisection over the co-access
graph (via networkx), followed by a greedy load-balancing repair pass.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List

from repro.transactions import Transaction


class SchismPartitioner:
    """Build a co-access graph from sampled transactions and cut it."""

    def __init__(self, num_partitions: int, num_sites: int, seed: int = 0):
        if num_sites < 1:
            raise ValueError(f"num_sites must be >= 1, got {num_sites}")
        # Imported here, not at module scope: networkx costs 110 ms and
        # 14 MB to import, and ``repro.partitioning`` is on the import
        # path of every run while only this class uses it.
        import networkx

        self.num_partitions = num_partitions
        self.num_sites = num_sites
        self.seed = seed
        self.graph = networkx.Graph()
        self.graph.add_nodes_from(range(num_partitions))
        for node in self.graph.nodes:
            self.graph.nodes[node]["weight"] = 0

    def observe(self, partitions: Iterable[int]) -> None:
        """Account one transaction's accessed partition set."""
        accessed = sorted(set(partitions))
        for partition in accessed:
            self.graph.nodes[partition]["weight"] += 1
        for left, right in combinations(accessed, 2):
            if self.graph.has_edge(left, right):
                self.graph[left][right]["weight"] += 1
            else:
                self.graph.add_edge(left, right, weight=1)

    def observe_workload(
        self,
        transactions: Iterable[Transaction],
        partition_of,
    ) -> None:
        """Account a stream of transactions via a key -> partition map.

        ``partition_of`` must be constant over a placement unit (pass
        ``Workload.placement_unit_of``, or ``scheme.partition`` where
        the two coincide): a scan block is resolved once, by its first
        key.
        """
        for txn in transactions:
            partitions = {partition_of(key) for key in txn.write_set + txn.read_set}
            partitions.update(partition_of(block[0]) for block in txn.scan_set)
            partitions.discard(None)
            if partitions:
                self.observe(partitions)

    # -- partitioning -----------------------------------------------------------

    def placement(self) -> Dict[int, int]:
        """Compute the partition -> site assignment."""
        groups = self._split(list(self.graph.nodes), self.num_sites)
        placement: Dict[int, int] = {}
        for site, group in enumerate(groups):
            for partition in group:
                placement[partition] = site
        return self._rebalance(placement)

    def cut_weight(self, placement: Dict[int, int]) -> int:
        """Total co-access weight crossing sites (distributed txn proxy)."""
        return sum(
            data["weight"]
            for left, right, data in self.graph.edges(data=True)
            if placement[left] != placement[right]
        )

    def _split(self, nodes: List[int], parts: int) -> List[List[int]]:
        """Recursive Kernighan–Lin bisection into ``parts`` groups."""
        if parts == 1 or len(nodes) <= 1:
            return [nodes] + [[] for _ in range(parts - 1)]
        left_parts = parts // 2
        right_parts = parts - left_parts
        subgraph = self.graph.subgraph(nodes)
        target = len(nodes) * left_parts // parts
        left, right = self._bisect(subgraph, nodes, target)
        return self._split(left, left_parts) + self._split(right, right_parts)

    def _bisect(self, subgraph, nodes: List[int], target: int):
        """One balanced bisection: target nodes on the left side."""
        ordered = sorted(nodes)
        seed_left = set(ordered[:target])
        seed_right = set(ordered[target:])
        if not seed_left or not seed_right:
            return list(seed_left), list(seed_right)
        from networkx.algorithms.community import kernighan_lin_bisection

        left, right = kernighan_lin_bisection(
            subgraph,
            partition=(seed_left, seed_right),
            weight="weight",
            seed=self.seed,
        )
        return sorted(left), sorted(right)

    def _rebalance(self, placement: Dict[int, int]) -> Dict[int, int]:
        """Greedy repair: move light nodes off overloaded sites.

        Kernighan–Lin balances node *counts*; this pass balances node
        access *weights* so one site does not end up with all the hot
        partitions, at minimal extra cut cost.
        """
        loads = [0.0] * self.num_sites
        for partition, site in placement.items():
            loads[site] += self.graph.nodes[partition]["weight"]
        average = sum(loads) / self.num_sites
        tolerance = 1.25
        for partition in sorted(
            placement, key=lambda p: self.graph.nodes[p]["weight"]
        ):
            site = placement[partition]
            if loads[site] <= average * tolerance:
                continue
            weight = self.graph.nodes[partition]["weight"]
            best = min(range(self.num_sites), key=lambda s: loads[s])
            if loads[best] + weight < loads[site]:
                placement[partition] = best
                loads[site] -= weight
                loads[best] += weight
        return placement
