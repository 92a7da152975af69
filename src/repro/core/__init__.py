"""Core: the W5 meta-application facade and shared access guards.

:class:`~repro.core.system.W5System` is the one-stop assembly most
examples start from; :mod:`repro.core.access` holds the storage access
guards shared by the filesystem and database.
"""

from . import access
from .journal import (Journal, JournalRecord, ReplayReport,
                      decode_payload, encode_payload)
from .metrics import Metrics
from .snapshot import Snapshotable
from .system import W5System

__all__ = ["access", "Journal", "JournalRecord", "ReplayReport",
           "decode_payload", "encode_payload",
           "Metrics", "Snapshotable", "W5System"]
