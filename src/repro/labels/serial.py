"""Serialization of labels and capabilities.

Federation (§3.3) moves labels between providers, and the labeled
filesystem persists them; both need a stable wire form.  We serialize
to plain JSON-able dicts keyed by tag id plus the audit metadata, and
deserialize *through a registry* so that tag identity is preserved (a
tag id is only meaningful relative to its registry's namespace).
"""

from __future__ import annotations

from typing import Any, Callable

from .capabilities import Capability, CapabilitySet
from .errors import TagError
from .label import Label
from .tags import Tag, TagRegistry


def tag_to_dict(tag: Tag) -> dict[str, Any]:
    """A JSON-able description of ``tag`` (id + audit metadata)."""
    return {
        "tag_id": tag.tag_id,
        "purpose": tag.purpose,
        "kind": tag.kind,
        "owner": tag.owner,
    }


def label_to_dict(label: Label, namespace: str) -> dict[str, Any]:
    """Serialize ``label``, recording the minting namespace."""
    return {
        "namespace": namespace,
        "tags": sorted((tag_to_dict(t) for t in label), key=lambda d: d["tag_id"]),
    }


def label_dict_memo(namespace: str) -> Callable[[Label], dict[str, Any]]:
    """A :func:`label_to_dict` that serializes each label object once.

    Scoped to one snapshot call: every node or row carrying the same
    interned label shares one dict, so callers must treat the dicts as
    read-only.  Keyed on the label's identity, not its value — label
    equality is by tag id alone, and two labels from different
    registries may share ids with different metadata.  The memo holds
    each label it saw, so an id cannot be reused while it lives.
    """
    memo: dict[int, tuple[Label, dict[str, Any]]] = {}

    def to_dict(label: Label) -> dict[str, Any]:
        hit = memo.get(id(label))
        if hit is None:
            hit = memo[id(label)] = (label, label_to_dict(label, namespace))
        return hit[1]

    return to_dict


def label_from_dict(data: dict[str, Any], registry: TagRegistry) -> Label:
    """Rebuild a label inside ``registry``.

    Tags minted by ``registry`` itself are resolved by id (and must
    still exist); tags from a different namespace are mapped through
    :meth:`TagRegistry.import_foreign`, so repeated transfers of the
    same foreign tag converge on one local tag.
    """
    namespace = data.get("namespace", "")
    tags: list[Tag] = []
    for td in data.get("tags", []):
        if namespace == registry.namespace:
            tags.append(registry.lookup(td["tag_id"]))
        else:
            tags.append(registry.import_foreign(
                namespace, td["tag_id"],
                purpose=td.get("purpose", ""),
                kind=td.get("kind", "secrecy"),
                owner=td.get("owner")))
    return Label(tags)


def capability_to_dict(cap: Capability, namespace: str) -> dict[str, Any]:
    return {"namespace": namespace, "sign": cap.sign, "tag": tag_to_dict(cap.tag)}


def capability_from_dict(data: dict[str, Any], registry: TagRegistry) -> Capability:
    namespace = data.get("namespace", "")
    td = data["tag"]
    if namespace == registry.namespace:
        tag = registry.lookup(td["tag_id"])
    else:
        tag = registry.import_foreign(
            namespace, td["tag_id"], purpose=td.get("purpose", ""),
            kind=td.get("kind", "secrecy"), owner=td.get("owner"))
    sign = data["sign"]
    if sign not in ("+", "-"):
        raise TagError(f"bad capability sign {sign!r}")
    return Capability(tag, sign)


def capset_to_dict(caps: CapabilitySet, namespace: str) -> dict[str, Any]:
    return {
        "namespace": namespace,
        "caps": sorted((capability_to_dict(c, namespace) for c in caps),
                       key=lambda d: (d["tag"]["tag_id"], d["sign"])),
    }


def capset_from_dict(data: dict[str, Any], registry: TagRegistry) -> CapabilitySet:
    return CapabilitySet(
        capability_from_dict(cd, registry) for cd in data.get("caps", []))
