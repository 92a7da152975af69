"""Filesystem persistence: snapshot and restore with labels intact.

A W5 provider restarts; its users' data — and the labels guarding it —
must come back exactly.  ``snapshot_fs`` walks the whole tree with
*no* label checks (it is the provider's cold-storage path, the same
trust level as the disk itself) and emits a JSON-able structure;
``restore_fs`` rebuilds the tree inside a kernel whose tag registry
was restored from the matching snapshot, so every label resolves to
the identical tag and every access decision after the restart matches
the decision before it (tested in ``tests/fs/test_persist.py``).

Payloads must be JSON-representable for the snapshot to be written to
a real disk; arbitrary Python objects round-trip in memory.
"""

from __future__ import annotations

from typing import Any, Callable

from ..kernel import Kernel
from ..labels import Label, TagRegistry, label_dict_memo, label_from_dict
from .filesystem import Directory, File, Inode, LabeledFileSystem


def snapshot_fs(fs: LabeledFileSystem) -> dict[str, Any]:
    """Serialize the whole tree (provider cold-storage path).

    Read-only result: each distinct label is serialized once and every
    node carrying it shares that dict.  A caller that edits the
    snapshot must ``copy.deepcopy`` it or JSON round-trip it first.
    """
    namespace = fs.kernel.tags.namespace
    return {"namespace": namespace,
            "root": _snapshot_node(fs.root, label_dict_memo(namespace))}


def _snapshot_node(node: Inode, labels: Callable[[Label], dict[str, Any]]
                   ) -> dict[str, Any]:
    common = {
        "name": node.name,
        "slabel": labels(node.slabel),
        "ilabel": labels(node.ilabel),
        "created_by": node.created_by,
    }
    if isinstance(node, Directory):
        common["kind"] = "dir"
        common["entries"] = {
            name: _snapshot_node(child, labels)
            for name, child in sorted(node.entries.items())}
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
    root_data = snapshot["root"]
    fs.root = _restore_node(root_data, kernel.tags)
    return fs


def _restore_node(data: dict[str, Any], registry: TagRegistry) -> Inode:
    slabel = label_from_dict(data["slabel"], registry)
    ilabel = label_from_dict(data["ilabel"], registry)
    if data["kind"] == "dir":
        node = Directory(name=data["name"], slabel=slabel, ilabel=ilabel,
                         created_by=data.get("created_by", ""))
        node.entries = {name: _restore_node(child, registry)
                        for name, child in data.get("entries", {}).items()}
        return node
    node = File(name=data["name"], slabel=slabel, ilabel=ilabel,
                created_by=data.get("created_by", ""),
                data=data.get("data"))
    node.version = data.get("version", 1)
    return node
