"""Lazy update propagation (paper §III-A, §V-A2, §V-C).

Each site owns a :class:`~repro.replication.log.DurableLog` — the
stand-in for the paper's per-site Apache Kafka topic. Commits append
update records; every other site's
:class:`~repro.replication.manager.ReplicationManager` subscribes,
applies the updates as refresh transactions under the update
application rule (Equation 1), and advances its site version vector.
The same log doubles as a redo log: :mod:`repro.replication.recovery`
rebuilds a site's database and the mastership map by replay.
"""

from repro.replication.log import DurableLog, LogRecord
from repro.replication.manager import ReplicationManager
from repro.replication.recovery import merge_logs, recover_database, recover_mastership

__all__ = [
    "DurableLog",
    "LogRecord",
    "ReplicationManager",
    "merge_logs",
    "recover_database",
    "recover_mastership",
]
