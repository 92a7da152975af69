"""What one delta round does and costs, pinned on a fixed dirty set.

The golden tests fix a round's observable output on each side: the
transfer count, the audit records (category, allowed, subject, detail)
and the ``disk``/``disk_read`` charges of the sync agents.  Process
ids are masked, since how many processes the set-up spawned is not
the round's business.  The cost test pins what a round must not pay
for: no capability set is built on its path (the agents spawn with
their account's label state), and each touched path is walked at most
once per side before anything is applied.
"""

import re
import sys
from collections import Counter

import pytest

from repro.federation import ProviderLink
from repro.federation.delta import DeltaSync
from repro.fs import FsView, IsADirectory, LabeledFileSystem
from repro.labels import CapabilitySet
from repro.platform import Provider, ProviderConfig
from repro.resources import ResourceManager

HOME = "/users/bob"


def world(plane="fast"):
    """Two metered providers with bob linked and three files mirrored
    by the first (full) round."""
    a, b = (Provider(name=name, resources=ResourceManager(),
                     config=ProviderConfig(plane=plane))
            for name in ("A", "B"))
    for p in (a, b):
        p.signup("bob", "pw")
    link = ProviderLink(a, b)
    link.link_account("bob")
    link.grant_sync("bob")
    for name in ("both", "d", "z"):
        a.store_user_data("bob", name, f"{name} v0")
    assert link.sync_user("bob") == 3
    return a, b, link


def as_bob(provider, *steps):
    agent = provider._user_agent(provider.account("bob"))
    try:
        fs = FsView(provider.fs, agent)
        for method, *args in steps:
            getattr(fs, method)(*args)
    finally:
        provider.kernel.exit(agent)


class Meter:
    """One side's audit records and sync-agent charges from now on."""

    def __init__(self, provider):
        self.provider = provider
        self.start = len(provider.kernel.audit)
        self.charges = self._charges()

    def _charges(self):
        rm = self.provider.kernel.resources
        return (rm.total("disk", "sync-agent"),
                rm.total("disk_read", "sync-agent"))

    def records(self):
        return [(e.category, e.allowed, e.subject,
                 re.sub(r"pid=\d+", "pid=#", e.detail))
                for e in list(self.provider.kernel.audit)[self.start:]]

    def charged(self):
        now = self._charges()
        return (now[0] - self.charges[0], now[1] - self.charges[1])


def spawn(name):
    return [("spawn", True, "provider", f"trusted spawn '{name}' pid=#")]


def reads(*names):
    return [("file_read", True, "sync-agent:bob", f"read {HOME}/{name}")
            for name in names]


def writes(*ops):
    return [("file_write", True, "sync-agent:bob", f"{op} {HOME}/{name}")
            for op, name in ops]


EXIT = [("exit", True, "sync-agent:bob", "exit pid=#")]


class TestDeltaRoundGolden:
    def test_round_over_a_fixed_dirty_set(self):
        """New on A, new on B, changed on both (A wins), and a path
        that became a directory on A while B deleted its copy."""
        a, b, link = world()
        a.store_user_data("bob", "a_new", "only on A")
        b.store_user_data("bob", "b_new", "only on B")
        as_bob(a, ("write", f"{HOME}/both", "A wins"),
               ("delete", f"{HOME}/d"), ("mkdir", f"{HOME}/d"))
        as_bob(b, ("write", f"{HOME}/both", "B loses"),
               ("delete", f"{HOME}/d"))
        meter_a, meter_b = Meter(a), Meter(b)
        assert link.sync_user("bob") == 3
        assert meter_a.records() == (
            spawn("sync-agent:bob") + reads("a_new", "both")
            + writes(("create", "b_new")) + EXIT)
        assert meter_b.records() == (
            spawn("sync-agent:bob") + reads("b_new", "both")
            + writes(("create", "a_new"), ("write", "both")) + EXIT)
        # A creates "only on B" (9 bytes); B creates "only on A" and
        # shrinks "B loses" to "A wins" (charged as 0)
        assert meter_a.charged() == (9, 2)
        assert meter_b.charged() == (9, 2)
        assert a.read_user_data("bob", "both") == "A wins"
        assert b.read_user_data("bob", "both") == "A wins"
        assert link.federation_stats()["transfers"] == 6

    def test_directory_on_one_side_raises(self):
        """A path that is a directory on A and a file on B cannot be
        mirrored: the round raises ``IsADirectory`` when it applies B's
        file to A, after shipping what A had for B."""
        a, b, link = world()
        as_bob(a, ("delete", f"{HOME}/z"), ("mkdir", f"{HOME}/z"))
        as_bob(b, ("write", f"{HOME}/z", "file on B"))
        a.store_user_data("bob", "a_new", "only on A")
        meter_a, meter_b = Meter(a), Meter(b)
        with pytest.raises(IsADirectory, match=f"^{HOME}/z$"):
            link.sync_user("bob")
        assert link.federation_stats()["transfers"] == 4
        assert meter_a.records() == (
            spawn("sync-agent:bob") + reads("a_new") + EXIT)
        assert meter_b.records() == (
            spawn("sync-agent:bob") + reads("z")
            + writes(("create", "a_new")) + EXIT)
        assert meter_a.charged() == (0, 1)
        assert meter_b.charged() == (9, 1)

    def test_directory_on_one_side_raises_on_the_oracle_plane(self):
        a, b, link = world(plane="oracle")
        as_bob(a, ("delete", f"{HOME}/z"), ("mkdir", f"{HOME}/z"))
        as_bob(b, ("write", f"{HOME}/z", "file on B"))
        with pytest.raises(IsADirectory, match=f"^{HOME}/z$"):
            link.sync_user("bob")


class TestRoundCost:
    @staticmethod
    def profiled(fn):
        """Run ``fn`` and return, in call order, one event per
        capability-set construction (``"caps"``), per path walk
        (``(filesystem, path)``) and per file applied (``"apply"``)."""
        new_caps = CapabilitySet.__new__.__code__
        walk = LabeledFileSystem._resolve.__code__
        apply = DeltaSync._apply_file.__code__
        events = []

        def profile(frame, event, arg):
            if event != "call":
                return
            code = frame.f_code
            if code is new_caps:
                events.append("caps")
            elif code is walk:
                f_locals = frame.f_locals
                events.append((f_locals["self"],
                               "/" + "/".join(f_locals["parts"])))
            elif code is apply:
                events.append("apply")

        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return events

    def test_store_and_round_build_no_capability_set(self):
        a, b, link = world()
        stores = self.profiled(lambda: (
            a.store_user_data("bob", "a_new", "only on A"),
            b.store_user_data("bob", "b_new", "only on B")))
        assert "caps" not in stores
        round_ = self.profiled(lambda: link.sync_user("bob"))
        assert "caps" not in round_
        assert round_.count("apply") == 2

    def test_round_walks_each_touched_path_once_per_side(self):
        a, b, link = world()
        a.store_user_data("bob", "a_new", "only on A")
        b.store_user_data("bob", "b_new", "only on B")
        as_bob(a, ("write", f"{HOME}/both", "A wins"))
        as_bob(b, ("write", f"{HOME}/both", "B loses"))
        events = self.profiled(lambda: link.sync_user("bob"))
        before_apply = events[:events.index("apply")]
        walks = Counter(e for e in before_apply if isinstance(e, tuple))
        touched = [f"{HOME}/{name}" for name in ("a_new", "b_new", "both")]
        assert walks == Counter({(side.fs, path): 1
                                 for side in (a, b) for path in touched})
