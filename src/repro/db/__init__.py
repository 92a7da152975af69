"""Labeled tuple store: W5's covert-channel-free database substrate."""

from .errors import DbError, NoSuchRow, NoSuchTable, SchemaError, TableExists
from .persist import restore_store
from .store import DbView, LabeledStore, Row, Table

__all__ = [
    "DbError", "NoSuchRow", "NoSuchTable", "SchemaError", "TableExists",
    "restore_store",
    "DbView", "LabeledStore", "Row", "Table",
]
