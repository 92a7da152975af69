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


def _snapshot_node(node: Inode, labels: Callable[[Label], dict[str, Any]],
                   include_entries: bool = True) -> dict[str, Any]:
    common = {
        "name": node.name,
        "slabel": labels(node.slabel),
        "ilabel": labels(node.ilabel),
        "created_by": node.created_by,
    }
    if isinstance(node, Directory):
        common["kind"] = "dir"
        if include_entries:
            common["entries"] = {
                name: _snapshot_node(child, labels)
                for name, child in sorted(node.entries.items())}
    else:
        assert isinstance(node, File)
        common["kind"] = "file"
        common["data"] = node.data
        common["version"] = node.version
    return common


# ----------------------------------------------------------------------
# O(dirty) deltas (the incremental-durability path, PR 4)
# ----------------------------------------------------------------------

def snapshot_fs_delta(fs: LabeledFileSystem) -> dict[str, Any]:
    """Serialize only paths touched since the last full checkpoint.

    ``upserts`` maps canonical paths to node snapshots — directories
    *without* their entries (every child touched since the checkpoint
    is its own upsert; untouched children are already in the base) —
    and ``removed`` lists deleted paths.  Cumulative against the base,
    so :func:`merge_fs_delta` of (base, latest delta) equals a full
    :func:`snapshot_fs`.
    """
    namespace = fs.kernel.tags.namespace
    labels = label_dict_memo(namespace)
    dirty, deleted = fs.dirty_state()
    # Dirty paths are canonical, so their parent is everything before
    # the last "/"; each parent directory is resolved once.
    parents: dict[str, Any] = {}
    upserts: dict[str, Any] = {}
    for path in sorted(dirty):
        parent_path, _, leaf = path.rpartition("/")
        if parent_path not in parents:
            parents[parent_path] = _find_node(fs, parent_path)
        parent = parents[parent_path]
        node = (parent.entries.get(leaf)
                if isinstance(parent, Directory) else None)
        if node is None:  # pragma: no cover - dirty set prunes deletes
            continue
        upserts[path] = _snapshot_node(node, labels, include_entries=False)
    return {"namespace": namespace, "upserts": upserts,
            "removed": sorted(deleted)}


def _find_node(fs: LabeledFileSystem, path: str) -> Any:
    from .filesystem import split_path
    node: Any = fs.root
    for part in split_path(path):
        if not isinstance(node, Directory) or part not in node.entries:
            return None
        node = node.entries[part]
    return node


def merge_fs_delta(base: dict[str, Any],
                   delta: dict[str, Any]) -> dict[str, Any]:
    """Fold a delta into a base snapshot → a full-equivalent snapshot.

    Removals apply deepest-first (a deleted directory's recorded
    children vanish before it does); upserts shallowest-first (a new
    directory exists before its children land in it).  Each input is
    copied once (the upserts in one ``deepcopy``, so nodes that shared
    a label dict still share one copy); the result aliases neither.
    """
    import copy
    root = copy.deepcopy(base["root"])
    for path in sorted(delta.get("removed", ()),
                       key=lambda p: (-p.count("/"), p)):
        parent, leaf = _merge_descend(root, path)
        if parent is not None:
            parent.get("entries", {}).pop(leaf, None)
    upserts = copy.deepcopy(delta.get("upserts", {}))
    for path in sorted(upserts, key=lambda p: (p.count("/"), p)):
        parent, leaf = _merge_descend(root, path)
        if parent is None:
            continue
        node = upserts[path]
        if node["kind"] == "dir":
            existing = parent.setdefault("entries", {}).get(leaf)
            if existing is not None and existing.get("kind") == "dir":
                node["entries"] = existing.get("entries", {})
            else:
                node["entries"] = {}
        parent.setdefault("entries", {})[leaf] = node
    return {"namespace": base["namespace"], "root": root}


def _merge_descend(root: dict[str, Any], path: str):
    """(parent node dict, leaf name) for ``path`` in a snapshot tree;
    (None, leaf) when an intermediate directory is absent."""
    parts = [p for p in path.split("/") if p]
    node = root
    for part in parts[:-1]:
        entries = node.get("entries", {})
        if part not in entries:
            return None, parts[-1] if parts else ""
        node = entries[part]
    return node, parts[-1] if parts else ""


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
