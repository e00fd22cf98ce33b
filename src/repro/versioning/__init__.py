"""Version vectors and consistency rules (paper §III-A).

* :class:`~repro.versioning.vectors.VersionVector` — the m-dimensional
  integer vectors used as site (`svv`), transaction (`tvv`) and client
  session (`cvv`) versions.
* :func:`~repro.versioning.vectors.can_apply_refresh` — the update
  application rule (Equation 1).
* :class:`~repro.versioning.watch.VersionWatch` — a condition variable
  that wakes simulated processes when a site's version vector advances
  past a target.
"""

from repro.versioning.vectors import VersionVector, can_apply_refresh
from repro.versioning.watch import VersionWatch

__all__ = [
    "VersionVector",
    "VersionWatch",
    "can_apply_refresh",
]
