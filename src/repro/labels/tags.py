"""Tags: the opaque tokens from which DIFC labels are built.

A tag is globally unique for the lifetime of a :class:`TagRegistry`
(one registry per W5 provider).  Tags carry a human-readable *purpose*
and an optional *owner* principal name purely for audit and debugging;
the flow rules never look at either — only at tag identity — so the
security argument does not depend on the metadata being honest.

The paper (§3.1) needs two kinds of tags in practice:

* **secrecy** tags, used to taint private data ("Bob's data"), and
* **integrity** tags, used to vouch for provenance ("endorsed by the
  provider's installer").

A registry hands out both from the same id space; the ``kind`` field is
advisory, again only for audit output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import TagError

#: Advisory tag kinds.  The algebra treats all tags identically.
SECRECY = "secrecy"
INTEGRITY = "integrity"

_VALID_KINDS = frozenset({SECRECY, INTEGRITY})


@dataclass(frozen=True, slots=True)
class Tag:
    """An opaque, globally unique token.

    Identity (and therefore hashing and equality) is by ``tag_id``
    alone: two registries that ever produced the same id would break
    uniqueness, which is why tags are only minted through a registry.
    """

    tag_id: int
    purpose: str = field(compare=False, default="")
    kind: str = field(compare=False, default=SECRECY)
    owner: Optional[str] = field(compare=False, default=None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        owner = f"@{self.owner}" if self.owner else ""
        return f"Tag({self.tag_id}:{self.purpose}{owner})"


class TagRegistry:
    """Mints tags with unique ids and remembers their metadata.

    One registry per provider.  Federation (§3.3) maps remote tags into
    the local id space through :meth:`import_foreign`, preserving a
    provenance record so a sync declassifier can translate labels in
    both directions.
    """

    def __init__(self, namespace: str = "w5") -> None:
        self.namespace = namespace
        #: The id :meth:`create` mints next.
        self._next_id = 1
        self._tags: dict[int, Tag] = {}
        # (foreign namespace, foreign id) -> local tag
        self._foreign: dict[tuple[str, int], Tag] = {}
        #: Durability hook: called ``(op, data)`` for every mint so the
        #: provider's journal can replay tag creation (ids included —
        #: replay must reproduce the exact id space).
        self.on_mutate: Optional[Callable[[str, dict], None]] = None

    def create(self, purpose: str = "", kind: str = SECRECY,
               owner: Optional[str] = None) -> Tag:
        """Mint a fresh tag.

        ``purpose``/``owner`` are audit metadata; ``kind`` must be
        :data:`SECRECY` or :data:`INTEGRITY`.
        """
        if kind not in _VALID_KINDS:
            raise TagError(f"unknown tag kind {kind!r}")
        tag = Tag(self._next_id, purpose=purpose, kind=kind, owner=owner)
        self._next_id += 1
        self._tags[tag.tag_id] = tag
        if self.on_mutate is not None:
            self.on_mutate("tag.create", {
                "tag_id": tag.tag_id, "purpose": tag.purpose,
                "kind": tag.kind, "owner": tag.owner})
        return tag

    def lookup(self, tag_id: int) -> Tag:
        """Return the tag with ``tag_id`` or raise :class:`TagError`."""
        try:
            return self._tags[tag_id]
        except KeyError:
            raise TagError(f"no tag with id {tag_id} in {self.namespace}") from None

    def __contains__(self, tag: Tag) -> bool:
        return self._tags.get(tag.tag_id) == tag

    def __len__(self) -> int:
        return len(self._tags)

    def tags_owned_by(self, owner: str) -> list[Tag]:
        """All tags whose audit metadata names ``owner`` (for UIs/tests)."""
        return [t for t in self._tags.values() if t.owner == owner]

    def import_foreign(self, foreign_namespace: str, foreign_id: int,
                       purpose: str = "", kind: str = SECRECY,
                       owner: Optional[str] = None) -> Tag:
        """Map a remote provider's tag into this registry (idempotent).

        Repeated imports of the same (namespace, id) pair return the
        same local tag, which is what lets two linked providers agree
        on what "Bob's data" means on both sides (§3.3).
        """
        key = (foreign_namespace, foreign_id)
        existing = self._foreign.get(key)
        if existing is not None:
            return existing
        local = self.create(
            purpose=purpose or f"import:{foreign_namespace}:{foreign_id}",
            kind=kind, owner=owner)
        self._foreign[key] = local
        if self.on_mutate is not None:
            self.on_mutate("tag.foreign", {
                "namespace": foreign_namespace, "foreign_id": foreign_id,
                "local_id": local.tag_id})
        return local

    def foreign_origin(self, tag: Tag) -> Optional[tuple[str, int]]:
        """Inverse of :meth:`import_foreign`, or ``None`` for native tags."""
        for key, local in self._foreign.items():
            if local == tag:
                return key
        return None

    # -- persistence -------------------------------------------------------

    def snapshot(self) -> dict:
        """:class:`~repro.core.snapshot.Snapshotable`: every minted tag,
        the counter and the foreign map (restore with
        :meth:`import_state`)."""
        return {
            "namespace": self.namespace,
            "next_id": max(self._tags, default=0) + 1,
            "tags": [
                {"tag_id": t.tag_id, "purpose": t.purpose, "kind": t.kind,
                 "owner": t.owner}
                for t in sorted(self._tags.values(),
                                key=lambda t: t.tag_id)],
            "foreign": [
                {"namespace": ns, "foreign_id": fid, "local_id": t.tag_id}
                for (ns, fid), t in sorted(self._foreign.items())],
        }

    def install(self, tag_id: int, purpose: str, kind: str,
                owner: Optional[str]) -> Tag:
        """Re-create a tag with a *known* id (full restore and journal
        replay, which must reproduce the id space of the provider that
        minted it); keeps the counter ahead of every installed id.
        Idempotent for identical metadata.
        """
        existing = self._tags.get(tag_id)
        if existing is not None:
            return existing
        tag = Tag(tag_id, purpose=purpose, kind=kind, owner=owner)
        self._tags[tag_id] = tag
        self._next_id = max(self._next_id, tag_id + 1)
        return tag

    def install_foreign(self, namespace: str, foreign_id: int,
                        local_id: int) -> None:
        """Companion to :meth:`install` for foreign maps."""
        self._foreign[(namespace, foreign_id)] = self._tags[local_id]

    @classmethod
    def import_state(cls, state: dict) -> "TagRegistry":
        """Rebuild a registry from :meth:`snapshot` through
        :meth:`install`, so previously-serialized labels resolve to
        identical tags (same ids, same namespace)."""
        reg = cls(namespace=state["namespace"])
        for td in state["tags"]:
            reg.install(td["tag_id"], td["purpose"], td["kind"], td["owner"])
        for fd in state.get("foreign", []):
            reg.install_foreign(fd["namespace"], fd["foreign_id"],
                                fd["local_id"])
        return reg
