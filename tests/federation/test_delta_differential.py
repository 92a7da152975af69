"""Differential proof: delta sync ≡ the naive content reconciler.

Isolated worlds run the *same* random schedule of file edits,
deletions, row inserts/updates/deletes, checkpoints (which reset the
journal; one checkpoint between syncs is tailed through the journal's
kept epoch, two in a row make the delta engine's cursors stale) and
sync points.  The oracle world links two oracle-plane providers, which
keep no journal, so every round is the naive reconciliation; the fast
world links two fast-plane providers, whose rounds tail the journals;
the mixed world links a fast-plane provider to an oracle-plane one
(naive rounds again).  After the schedule the worlds must be
indistinguishable: identical file bytes, identical row multisets with
identical (symbolic) label protection on both providers, and the same
per-sync transfer counts.  This is the M15 acceptance criterion: the
optimization changes *how* dirty state is found, never *what* moves
or how the mirror is protected (C6).
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import ProviderLink
from repro.federation.peering import _row_key, _snapshot
from repro.fs import FsView
from repro.labels import Label, SecrecyViolation
from repro.platform import Provider, ProviderConfig


def build_world(plane_a="fast", plane_b="fast"):
    a = Provider(name="A", config=ProviderConfig(plane=plane_a))
    b = Provider(name="B", config=ProviderConfig(plane=plane_b))
    for p in (a, b):
        p.signup("bob", "pw")
        p.signup("eve", "pw")
    link = ProviderLink(a, b)
    link.link_account("bob")
    link.grant_sync("bob")
    return a, b, link


def with_agent(provider, fn):
    agent = provider._user_agent(provider.account("bob"))
    try:
        return fn(agent)
    finally:
        provider.kernel.exit(agent)


def apply_op(provider, op, slot, content):
    def run(agent):
        fs = FsView(provider.fs, agent)
        path = f"/users/bob/f{slot}"
        if op == "file":
            if fs.exists(path):
                fs.write(path, f"c{content}")
            else:
                fs.create(path, f"c{content}")
        elif op == "fdel":
            if fs.exists(path):
                fs.delete(path)
        else:
            if "posts" not in provider.db.tables():
                provider.db.create_table(agent, "posts")
            if op == "row":
                provider.db.insert(agent, "posts",
                                   {"slot": slot, "content": content})
            elif op == "rupd":
                provider.db.update(agent, "posts", where={"slot": slot},
                                   changes={"content": content})
            elif op == "rdel":
                provider.db.delete(agent, "posts", where={"slot": slot})
    with_agent(provider, run)


def row_state(provider):
    """Multiset of (table, content key, symbolic labels) over every
    row on the provider — label-faithful, provider-relative."""
    data_tag = provider.account("bob").data_tag
    write_tag = provider.account("bob").write_tag
    def symbol(tag):
        if tag == data_tag:
            return "bob.data"
        if tag == write_tag:
            return "bob.write"
        return f"other:{tag.name}"
    state: Counter = Counter()
    for table_name in sorted(provider.db.tables()):
        table = provider.db.table(table_name)
        for row in table.rows.values():
            state[(table_name, _row_key(row.values),
                   tuple(sorted(symbol(t) for t in row.slabel)),
                   tuple(sorted(symbol(t) for t in row.ilabel)))] += 1
    return state


#: (op, side, file/row slot, content id, sync-after?)
ops = st.lists(
    st.tuples(
        st.sampled_from(["file", "file", "file", "fdel", "row", "row",
                         "rupd", "rdel", "ckpt"]),
        st.sampled_from(["A", "B"]),
        st.integers(0, 3),
        st.integers(0, 5),
        st.booleans()),
    max_size=18)


class TestDeltaNaiveEquivalence:
    # three fifths of the active profile's budget: 60 schedules by
    # default, 600 under ``--hypothesis-profile=deep``
    @settings(max_examples=max(1, settings.default.max_examples * 3 // 5),
              deadline=None)
    @given(ops)
    def test_worlds_are_indistinguishable(self, schedule):
        worlds = {
            "oracle": build_world("oracle", "oracle"),
            "fast": build_world("fast", "fast"),
            "mixed": build_world("fast", "oracle"),
        }
        moved: dict[str, list[int]] = {name: [] for name in worlds}
        for op, side, slot, content, sync_after in schedule:
            for name, (a, b, link) in worlds.items():
                provider = a if side == "A" else b
                if op == "ckpt":
                    if provider._durability is not None:
                        provider._durability.checkpoint()
                else:
                    apply_op(provider, op, slot, content)
                if sync_after:
                    moved[name].append(link.sync_user("bob"))
        for name, (a, b, link) in worlds.items():
            moved[name].append(link.sync_user("bob"))
        oracle = worlds["oracle"]
        for name in ("fast", "mixed"):
            world = worlds[name]
            # identical transfer counts at every sync point
            assert moved[name] == moved["oracle"], name
            # identical file bytes on each provider
            for index in (0, 1):
                assert _snapshot(world[index], "bob") == \
                    _snapshot(oracle[index], "bob"), name
            # identical rows under identical label protection (C6)
            for index in (0, 1):
                assert row_state(world[index]) == \
                    row_state(oracle[index]), name

    @settings(max_examples=25, deadline=None)
    @given(ops)
    def test_delta_fixpoint_is_quiet(self, schedule):
        a, b, link = build_world()
        for op, side, slot, content, __ in schedule:
            provider = a if side == "A" else b
            if op == "ckpt":
                provider._durability.checkpoint()
            else:
                apply_op(provider, op, slot, content)
        link.sync_user("bob")
        assert link.sync_user("bob") == 0
        assert link.sync_user("bob") == 0

    @settings(max_examples=20, deadline=None)
    @given(ops)
    def test_mirror_stays_protected_under_delta(self, schedule):
        """C6 on the delta path: whatever the schedule did, eve can
        never read bob's mirrored files on either provider."""
        a, b, link = build_world()
        for op, side, slot, content, __ in schedule:
            provider = a if side == "A" else b
            if op == "ckpt":
                provider._durability.checkpoint()
            else:
                apply_op(provider, op, slot, content)
        link.sync_user("bob")
        for provider in (a, b):
            names = _snapshot(provider, "bob")
            snoop = provider.kernel.spawn_trusted("eve-snoop")
            fs = FsView(provider.fs, snoop)
            for name in names:
                with pytest.raises(SecrecyViolation):
                    fs.read(f"/users/bob/{name}")
            provider.kernel.exit(snoop)
