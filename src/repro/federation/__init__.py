"""Multi-provider W5: peering, linked accounts, mirrored data (§3.3).

Two layers: :mod:`peering` is the pairwise sync declassifier from the
paper (with its journal-cursor delta engine in :mod:`delta`), and
:mod:`fabric` scales it to N providers behind a consistent-hash
directory (M15).
"""

from .delta import DeltaSync
from .fabric import FederationFabric, ProviderDown
from .peering import ProviderLink, SyncError, SyncState, converged

__all__ = [
    "DeltaSync",
    "FederationFabric", "ProviderDown",
    "ProviderLink", "SyncError", "SyncState",
    "converged",
]
