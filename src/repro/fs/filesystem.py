"""The labeled filesystem.

All user data on a W5 cluster lives in files (photos, blog posts,
friend lists) whose labels the platform enforces on every access (§2:
the provider's software must track data "to and from persistent
storage").

Label semantics
---------------

Each object (file or directory) carries:

* ``slabel`` — secrecy.  *Reading* is a flow object → process and
  requires ``S_obj ⊆ S_proc``; *writing* is process → object and
  requires ``S_proc ⊆ S_obj``.  A tainted process can therefore write
  only into files at least as tainted as itself — the classic
  no-write-down rule that stops a malicious app from copying Bob's
  photos into a public file.

* ``ilabel`` — integrity, checked in the dual direction: reading
  requires ``I_proc ⊆ I_obj`` (a high-integrity process only consumes
  endorsed inputs), writing requires ``I_obj ⊆ I_proc``.

* **Write protection (§3.1)** falls out of integrity: when Bob's data
  is created, the platform puts Bob's *write tag* ``w_bob`` into the
  file's integrity label.  Writing then requires the writer to carry
  ``w_bob`` in its own integrity label, which it can only do with the
  ``w_bob+`` capability — exactly the "write privilege" Bob delegates
  "as he sees fit".  No parallel permission system is needed.

Capability waivers
------------------

File access applies a process's capabilities exactly where Flume's
endpoint rule would let it declare a file endpoint, i.e. only where the
waiver is equivalent to a *legal label-change round trip*:

* integrity read-down: a process may read an object missing some of
  its integrity tags iff it holds ``w-`` for each (it could have
  dropped ``w``, read, and stayed low — sound);
* integrity write-up: writing an object that requires ``w`` is allowed
  iff the process holds ``w+`` (it could have claimed ``w`` first) —
  this *is* W5's delegable write privilege;
* secrecy write-down: allowed iff the process holds ``t-`` for each
  shed tag (declassification authority);
* secrecy read-up: allowed only for tags the process fully *owns*
  (``t+`` and ``t-``): with ``t+`` alone, raise–read–lower is not a
  legal sequence, so a mere ``t+`` holder must explicitly raise its
  label (and get stuck tainted) to read.

Otherwise processes do not auto-raise labels on read (Flume, not
Asbestos): a read that would need a label change fails loudly, and the
caller must ``raise_secrecy`` first.  The :class:`FsView` convenience
wrapper keeps application code short without weakening the checks.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from ..core import access
from ..kernel import Kernel, Process
from ..kernel import audit as A
from ..labels import (IntegrityViolation, Label, SecrecyViolation,
                      label_dict_memo)
from .errors import (FsError, IsADirectory, NoSuchPath, NotADirectory,
                     PathExists)


@dataclass(slots=True)
class Inode:
    """Common metadata for files and directories.  Slotted, like
    ``File`` and ``Directory``: a provider keeps one per file, and a
    home directory can hold tens of thousands."""

    name: str
    slabel: Label
    ilabel: Label
    created_by: str = ""

    def is_dir(self) -> bool:
        raise NotImplementedError


@dataclass(slots=True)
class File(Inode):
    """A leaf object holding an arbitrary payload."""

    data: Any = None
    version: int = 1

    def is_dir(self) -> bool:
        return False

    def size(self) -> int:
        """Approximate byte size for quota accounting."""
        if isinstance(self.data, (bytes, bytearray)):
            return len(self.data)
        if isinstance(self.data, str):
            return len(self.data.encode())
        return len(repr(self.data))


@dataclass(slots=True)
class Directory(Inode):
    """An interior node mapping names to children."""

    entries: dict[str, Inode] = field(default_factory=dict)

    def is_dir(self) -> bool:
        return True


def split_path(path: str) -> list[str]:
    """Normalize ``/a/b/c`` into components, rejecting empties."""
    parts = [p for p in path.strip("/").split("/") if p]
    for p in parts:
        if p in (".", ".."):
            raise FsError(f"relative component {p!r} not supported")
    return parts


class LabeledFileSystem:
    """A tree of labeled inodes guarded by the flow rules.

    The filesystem holds a reference to the kernel only for auditing
    and resource charging; the flow decisions use the same pure
    functions as IPC, so FS and IPC can never disagree about policy.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        #: Fast plane: :meth:`walk` batches read verdicts per child
        #: label pair; the oracle checks node by node.
        self.grouped_walk = kernel.plane == "fast"
        self.root = Directory(name="/", slabel=Label.EMPTY,
                              ilabel=Label.EMPTY, created_by="provider")
        self._stats = {"subtrees_pruned": 0, "label_batches": 0}
        #: Durability hook: ``(op, data)`` per mutation (journal).
        self.on_mutate: Optional[Callable[[str, dict], None]] = None

    def stats(self) -> dict[str, Any]:
        """Walk-pruning counters for metrics and benchmarks."""
        return dict(self._stats)

    def snapshot(self) -> dict[str, Any]:
        """:class:`~repro.core.snapshot.Snapshotable` — serialize the
        whole labeled tree with *no* label checks (the provider's
        cold-storage path; restore with :func:`repro.fs.restore_fs`).

        Read-only result: each distinct label is serialized once and
        every node carrying it shares that dict.  A caller that edits
        the snapshot must ``copy.deepcopy`` it or JSON round-trip it
        first.
        """
        from .persist import node_dict
        namespace = self.kernel.tags.namespace
        return {"namespace": namespace,
                "root": node_dict(self.root, label_dict_memo(namespace))}

    def install(self, parent: Optional[Directory], name: str, kind: str,
                slabel: Label, ilabel: Label, created_by: str = "",
                data: Any = None, version: int = 1) -> Inode:
        """Re-create one node, ``kind`` ``"dir"`` or ``"file"``, as
        ``parent``'s entry ``name``, with no checks, charges or
        journaling (full restore and journal replay).  ``parent=None``
        replaces the root."""
        if kind == "dir":
            node = Directory(name, slabel, ilabel, created_by)
        else:
            node = File(name, slabel, ilabel, created_by, data, version)
        if parent is None:
            self.root = node
        else:
            parent.entries[name] = node
        return node

    def parent_of(self, path: str) -> tuple[Directory, str]:
        """The directory holding ``path`` and its last component, with
        no checks (installers and journal replay)."""
        parts = split_path(path)
        parent = self.root
        for part in parts[:-1]:
            parent = parent.entries[part]
        return parent, parts[-1]

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def _resolve(self, process: Process, parts: list[str],
                 final: Optional[str] = None,
                 want: Optional[str] = None) -> Inode:
        """Walk the tree along ``parts`` (from :func:`split_path`),
        read-checking every directory traversed.

        Directory traversal is a read of the directory's entry list, so
        each component must be readable by ``process`` — otherwise the
        existence of names inside a secret directory would itself leak.

        With ``final`` set, the walk also read-checks the node it ends
        on, naming ``final`` in a denial: the operation reads that node
        (``read``, ``stat``, ``listdir``) or writes an entry into it
        (the parent of ``create``, ``mkdir`` and ``delete``).  ``want``
        is the node's required shape, checked before its read check:
        ``"file"`` raises :class:`IsADirectory`, ``"dir"`` and
        ``"parent"`` raise :class:`NotADirectory`.

        The walk fetches the read verdicts of the process's label state
        once (:meth:`~repro.labels.FlowCache.read_table`) and probes
        them once per node checked.  Only a cached allow skips the
        check: a miss or a cached deny goes through :meth:`_check_read`,
        which computes and stores the verdict, or raises and audits the
        refusal.  The table lives for this one walk only, in which the
        process's labels cannot change.
        """
        cache = self.kernel.flow_cache
        table = cache.read_table(process)
        node: Inode = self.root
        hits = 0
        try:
            for i, part in enumerate(parts):
                if not isinstance(node, Directory):
                    raise NotADirectory(
                        "/" + "/".join(parts[:i]) + " is not a directory")
                if table.get((node.slabel, node.ilabel)) is True:
                    hits += 1
                else:
                    self._check_read(process, node, "/" + "/".join(parts[:i]))
                try:
                    node = node.entries[part]
                except KeyError:
                    raise NoSuchPath("/" + "/".join(parts[:i + 1])) from None
            if final is not None:
                if want == "file":
                    if isinstance(node, Directory):
                        raise IsADirectory(final)
                elif want is not None and not isinstance(node, Directory):
                    raise NotADirectory(
                        final if want == "dir"
                        else f"parent of {final} is not a directory")
                if table.get((node.slabel, node.ilabel)) is True:
                    hits += 1
                else:
                    self._check_read(process, node, final)
        finally:
            if hits:
                cache.count_hits("fs.read", hits)
        return node

    def _parent_and_leaf(self, process: Process,
                         path: str) -> tuple[Directory, str, str]:
        """The read-checked parent directory of ``path``, its leaf name
        and the canonical spelling of ``path``, from one split."""
        parts = split_path(path)
        if not parts:
            raise FsError("path has no parent")
        parent = self._resolve(process, parts[:-1], path, "parent")
        assert isinstance(parent, Directory)
        return parent, parts[-1], "/" + "/".join(parts)

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------

    def _check_read(self, process: Process, node: Inode, path: str) -> None:
        try:
            access.check_read(process, node.slabel, node.ilabel, path,
                              cache=self.kernel.flow_cache,
                              category="fs.read")
        except (SecrecyViolation, IntegrityViolation):
            self.kernel.audit.record(A.FILE_READ, False, process.name,
                                     f"read {path} refused")
            raise

    def _check_write(self, process: Process, node: Inode, path: str) -> None:
        try:
            access.check_write(process, node.slabel, node.ilabel, path,
                               cache=self.kernel.flow_cache,
                               category="fs.write")
        except (SecrecyViolation, IntegrityViolation):
            self.kernel.audit.record(A.FILE_WRITE, False, process.name,
                                     f"write {path} refused")
            raise

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def mkdir(self, process: Process, path: str,
              slabel: Optional[Label] = None,
              ilabel: Optional[Label] = None) -> Directory:
        """Create a directory; labels default to the creator's labels.

        Creating an entry writes to the parent directory, so the parent
        must be writable by the process.
        """
        with self.kernel.tracer.detail("fs.mkdir", path=path):
            return self._mkdir(process, path, slabel, ilabel)

    def _mkdir(self, process: Process, path: str,
               slabel: Optional[Label],
               ilabel: Optional[Label]) -> Directory:
        parent, leaf, canon = self._parent_and_leaf(process, path)
        self._check_write(process, parent, path)
        if leaf in parent.entries:
            raise PathExists(path)
        d = Directory(name=leaf,
                      slabel=process.slabel if slabel is None else slabel,
                      ilabel=process.ilabel if ilabel is None else ilabel,
                      created_by=process.name)
        self._validate_new_labels(process, d, path)
        parent.entries[leaf] = d
        if self.on_mutate is not None:
            self.on_mutate("fs.mkdir", {
                "path": canon,
                "slabel": sorted(t.tag_id for t in d.slabel),
                "ilabel": sorted(t.tag_id for t in d.ilabel),
                "created_by": d.created_by})
        self.kernel.audit.record(A.FILE_WRITE, True, process.name,
                                 f"mkdir {path}")
        return d

    def create(self, process: Process, path: str, data: Any,
               slabel: Optional[Label] = None,
               ilabel: Optional[Label] = None) -> File:
        """Create a file.  Labels default to the creator's labels.

        The chosen secrecy label must dominate the creator's (no
        writing secrets into a less-secret file at birth); the chosen
        integrity label must be within what the creator can vouch for.
        """
        with self.kernel.tracer.detail("fs.create", path=path):
            return self._create(process, path, data, slabel, ilabel)

    def _create(self, process: Process, path: str, data: Any,
                slabel: Optional[Label],
                ilabel: Optional[Label]) -> File:
        parent, leaf, canon = self._parent_and_leaf(process, path)
        self._check_write(process, parent, path)
        if leaf in parent.entries:
            raise PathExists(path)
        f = File(name=leaf,
                 slabel=process.slabel if slabel is None else slabel,
                 ilabel=process.ilabel if ilabel is None else ilabel,
                 created_by=process.name, data=copy.deepcopy(data))
        self._validate_new_labels(process, f, path)
        self.kernel.resources.charge(process, "disk", f.size())
        parent.entries[leaf] = f
        if self.on_mutate is not None:
            self.on_mutate("fs.create", {
                "path": canon,
                "slabel": sorted(t.tag_id for t in f.slabel),
                "ilabel": sorted(t.tag_id for t in f.ilabel),
                "created_by": f.created_by, "data": f.data})
        self.kernel.audit.record(A.FILE_WRITE, True, process.name,
                                 f"create {path}")
        return f

    def _validate_new_labels(self, process: Process, node: Inode,
                             path: str) -> None:
        """A freshly created object is a write, checked like one."""
        self._check_write(process, node, path)

    def read(self, process: Process, path: str) -> Any:
        """Return a *copy* of a file's payload after the read checks.

        The copy is load-bearing: handing out the stored object by
        reference would let a process mutate storage in place,
        bypassing the write checks entirely (a reader could append to
        a stored list and the vandalism would stick even though its
        ``write`` was refused).
        """
        with self.kernel.tracer.detail("fs.read", path=path):
            return self._read(process, path)

    def _read(self, process: Process, path: str) -> Any:
        node = self._resolve(process, split_path(path), path, "file")
        assert isinstance(node, File)
        return self._load(process, node, path)

    def _load(self, process: Process, node: File, path: str) -> Any:
        """A read-checked file's payload, charged and audited."""
        self.kernel.resources.charge(process, "disk_read", 1)
        self.kernel.audit.record_lazy(A.FILE_READ, True, process.name,
                                      "read %s", (path,))
        return copy.deepcopy(node.data)

    def write(self, process: Process, path: str, data: Any) -> File:
        """Overwrite a file's payload after the write checks."""
        with self.kernel.tracer.detail("fs.write", path=path):
            return self._write(process, path, data)

    def _write(self, process: Process, path: str, data: Any) -> File:
        parts = split_path(path)
        node = self._resolve(process, parts)
        if node.is_dir():
            raise IsADirectory(path)
        self._check_write(process, node, path)
        assert isinstance(node, File)
        self.kernel.resources.charge(process, "disk", max(
            0, File(name="", slabel=Label.EMPTY, ilabel=Label.EMPTY,
                    data=data).size() - node.size()))
        node.data = copy.deepcopy(data)
        node.version += 1
        canon = "/" + "/".join(parts)
        if self.on_mutate is not None:
            self.on_mutate("fs.write", {"path": canon, "data": node.data})
        self.kernel.audit.record_lazy(A.FILE_WRITE, True, process.name,
                                      "write %s", (path,))
        return node

    def delete(self, process: Process, path: str) -> None:
        """Remove a file or empty directory (a write to object+parent)."""
        with self.kernel.tracer.detail("fs.delete", path=path):
            self._delete(process, path)

    def _delete(self, process: Process, path: str) -> None:
        parent, leaf, canon = self._parent_and_leaf(process, path)
        self._check_write(process, parent, path)
        try:
            node = parent.entries[leaf]
        except KeyError:
            raise NoSuchPath(path) from None
        self._check_write(process, node, path)
        if node.is_dir() and getattr(node, "entries", None):
            raise FsError(f"directory {path} not empty")
        del parent.entries[leaf]
        if self.on_mutate is not None:
            self.on_mutate("fs.delete", {"path": canon})
        self.kernel.audit.record(A.FILE_WRITE, True, process.name,
                                 f"delete {path}")

    def listdir(self, process: Process, path: str = "/") -> list[str]:
        """Entry names of a directory (a read of the directory)."""
        with self.kernel.tracer.detail("fs.listdir", path=path):
            return self._listdir(process, path)

    def _listdir(self, process: Process, path: str = "/") -> list[str]:
        node = self._resolve(process, split_path(path), path, "dir")
        assert isinstance(node, Directory)
        return sorted(node.entries)

    def stat(self, process: Process, path: str) -> dict[str, Any]:
        """Metadata for a path (requires readability of the object)."""
        node = self._resolve(process, split_path(path), path)
        info: dict[str, Any] = {
            "name": node.name,
            "is_dir": node.is_dir(),
            "slabel": node.slabel,
            "ilabel": node.ilabel,
            "created_by": node.created_by,
        }
        if isinstance(node, File):
            info["size"] = node.size()
            info["version"] = node.version
        return info

    def exists(self, process: Process, path: str) -> bool:
        """True if ``path`` resolves for this process.

        Deliberately label-checked: a path inside an unreadable
        directory reports ``False`` rather than leaking existence.
        """
        return self._find(process, path) is not None

    def _find(self, process: Process, path: str) -> Optional[Inode]:
        """The node at ``path``, or ``None`` where :meth:`exists` says
        ``False``."""
        try:
            return self._resolve(process, split_path(path))
        except (NoSuchPath, SecrecyViolation, IntegrityViolation,
                NotADirectory):
            return None

    def lookup(self, process: Process,
               path: str) -> tuple[Optional[Inode], Any]:
        """``exists``, ``stat`` and ``read`` of one path in one walk, for
        a caller that reconciles what each side of a link holds.

        A path that does not resolve for ``process`` (missing, or
        behind an unreadable directory) gives ``(None, None)``, where
        :meth:`exists` reports ``False``.  A found node takes
        :meth:`stat`'s read check, whose denial raises.  A directory
        gives ``(node, None)``; a file gives ``(node, payload)``, the
        payload charged and audited as :meth:`read` does.
        """
        with self.kernel.tracer.detail("fs.lookup", path=path):
            node = self._find(process, path)
            if node is None:
                return None, None
            self._check_read(process, node, path)
            if isinstance(node, File):
                return node, self._load(process, node, path)
            return node, None

    def walk(self, process: Process, path: str = "/") -> Iterable[tuple[str, Inode]]:
        """Yield (path, inode) for every object readable by ``process``.

        Unreadable subtrees are skipped silently — the caller learns
        nothing about them, matching the covert-channel posture of
        :mod:`repro.db`.

        On the fast plane each directory's children take their read
        verdicts from the flow cache's table for the process's label
        state (:meth:`~repro.labels.FlowCache.read_table`), fetched
        when the directory is expanded, so visibility is
        computed once per distinct ``(slabel, ilabel)`` pair, as the
        path walk and the partitioned scan do; unreadable nodes are
        pruned at pop time with the same audit refusal record the
        naive traversal emits, but without re-deriving the full
        violation per node.  Yield order and the audit stream are
        identical to the naive engine.
        """
        node = self._resolve(process, split_path(path))
        root_key = path if path != "/" else ""
        if not self.grouped_walk:
            stack: list[tuple[str, Inode]] = [(root_key, node)]
            while stack:
                prefix, current = stack.pop()
                try:
                    self._check_read(process, current, prefix or "/")
                except (SecrecyViolation, IntegrityViolation):
                    continue
                yield (prefix or "/", current)
                if isinstance(current, Directory):
                    for name, child in sorted(current.entries.items()):
                        stack.append((f"{prefix}/{name}", child))
            return
        cache = self.kernel.flow_cache
        root_ok = cache.readable(process, node.slabel, node.ilabel,
                                 category="fs.read")
        gstack: list[tuple[str, Inode, bool]] = [(root_key, node, root_ok)]
        while gstack:
            prefix, current, ok = gstack.pop()
            if not ok:
                # same record _check_read would have written, without
                # paying for the uncached violation derivation
                self.kernel.audit.record(A.FILE_READ, False, process.name,
                                         f"read {prefix or '/'} refused")
                self._stats["subtrees_pruned"] += 1
                continue
            yield (prefix or "/", current)
            if isinstance(current, Directory) and current.entries:
                # fetched per directory: the caller may change the
                # process's labels between two yields
                known = cache.read_table(process)
                hits = 0
                for name, child in sorted(current.entries.items()):
                    ok = known.get((child.slabel, child.ilabel))
                    if ok is None:
                        ok = cache.readable(process, child.slabel,
                                            child.ilabel, category="fs.read")
                    else:
                        hits += 1
                    gstack.append((f"{prefix}/{name}", child, ok))
                if hits:
                    cache.count_hits("fs.read", hits)
                self._stats["label_batches"] += 1


class FsView:
    """A filesystem handle bound to one process.

    This is what the platform injects into application code next to
    its :class:`~repro.kernel.W5Syscalls`; it simply curries the
    process argument so app code reads naturally.
    """

    def __init__(self, fs: LabeledFileSystem, process: Process) -> None:
        self._fs = fs
        self._process = process

    def mkdir(self, path: str, **kw: Any) -> Directory:
        return self._fs.mkdir(self._process, path, **kw)

    def create(self, path: str, data: Any, **kw: Any) -> File:
        return self._fs.create(self._process, path, data, **kw)

    def read(self, path: str) -> Any:
        return self._fs.read(self._process, path)

    def write(self, path: str, data: Any) -> File:
        return self._fs.write(self._process, path, data)

    def delete(self, path: str) -> None:
        self._fs.delete(self._process, path)

    def listdir(self, path: str = "/") -> list[str]:
        return self._fs.listdir(self._process, path)

    def stat(self, path: str) -> dict[str, Any]:
        return self._fs.stat(self._process, path)

    def exists(self, path: str) -> bool:
        return self._fs.exists(self._process, path)

    def lookup(self, path: str) -> tuple[Optional[Inode], Any]:
        return self._fs.lookup(self._process, path)

    def walk(self, path: str = "/") -> Iterable[tuple[str, Inode]]:
        return self._fs.walk(self._process, path)
