"""Filesystem persistence: the labeled tree's snapshot form and restore.

A W5 provider restarts; its users' data — and the labels guarding it —
must come back exactly.  :meth:`LabeledFileSystem.snapshot` walks the
whole tree with *no* label checks (it is the provider's cold-storage
path, the same trust level as the disk itself) and emits a JSON-able
structure; :func:`restore_fs` rebuilds the tree node by node through
:meth:`LabeledFileSystem.install`, the installer journal replay uses
for ``fs.mkdir`` and ``fs.create``, inside a kernel whose tag registry
was restored from the matching snapshot, so every label resolves to
the identical tag and every access decision after the restart matches
the decision before it (tested in ``tests/fs/test_persist.py``).

Payloads must be JSON-representable for the snapshot to be written to
a real disk; arbitrary Python objects round-trip in memory.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..kernel import Kernel
from ..labels import Label, TagRegistry, label_from_dict
from .filesystem import Directory, File, Inode, LabeledFileSystem


def node_dict(node: Inode, labels: Callable[[Label], dict[str, Any]]
              ) -> dict[str, Any]:
    """The snapshot form of ``node`` and everything below it."""
    common = {
        "name": node.name,
        "slabel": labels(node.slabel),
        "ilabel": labels(node.ilabel),
        "created_by": node.created_by,
    }
    if isinstance(node, Directory):
        common["kind"] = "dir"
        # sort the names, not (name, child) pairs: a home directory
        # can hold tens of thousands of entries
        entries = node.entries
        common["entries"] = {name: node_dict(entries[name], labels)
                             for name in sorted(entries)}
    else:
        assert isinstance(node, File)
        common["kind"] = "file"
        common["data"] = node.data
        common["version"] = node.version
    return common


def restore_fs(kernel: Kernel, snapshot: dict[str, Any]
               ) -> LabeledFileSystem:
    """Rebuild a filesystem from a snapshot inside ``kernel``, on the
    kernel's plane.

    ``kernel.tags`` must already hold the snapshot's tags (restore the
    registry first with :meth:`TagRegistry.import_state`); labels from
    a different namespace are mapped through foreign import, exactly
    like federation transfers.
    """
    fs = LabeledFileSystem(kernel)
    _install(fs, None, snapshot["root"], kernel.tags)
    return fs


def _install(fs: LabeledFileSystem, parent: Optional[Directory],
             data: dict[str, Any], registry: TagRegistry) -> None:
    node = fs.install(parent, data["name"], data["kind"],
                      label_from_dict(data["slabel"], registry),
                      label_from_dict(data["ilabel"], registry),
                      data.get("created_by", ""), data.get("data"),
                      data.get("version", 1))
    for child in data.get("entries", {}).values():
        _install(fs, node, child, registry)
