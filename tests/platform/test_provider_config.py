"""The Provider configuration API: two planes and three deployment knobs.

The ``fast`` and ``oracle`` presets, the plane each component is put
on, config threading through W5System and persistence restore, the
``Provider.stats()`` tree with ``Metrics.attach``, and ``Provider.explain`` / the ``plan``
CLI renderer.  Fast-vs-oracle equivalence itself is the differential
suites' job (``tests/_differential.py``).
"""

import dataclasses
import inspect
import json
from types import SimpleNamespace

import pytest

from repro.core import Metrics, W5System
from repro.db import LabeledStore, restore_store
from repro.declassify import DeclassificationService
from repro.federation import FederationFabric, ProviderLink
from repro.fs import LabeledFileSystem, restore_fs
from repro.kernel import Kernel, ProcessPool
from repro.labels import FlowCache
from repro.platform import (Provider, ProviderConfig, restore_provider,
                            snapshot_provider)
from repro.platform.capindex import LaunchCapIndex
from repro.platform.plans import PlanCache


class TestProviderConfig:
    def test_fields_are_the_plane_and_deployment_knobs(self):
        assert [f.name for f in dataclasses.fields(ProviderConfig)] == [
            "plane", "shards", "shard_engine", "journal_compact_bytes"]

    def test_unknown_plane_rejected(self):
        with pytest.raises(ValueError, match="unknown plane"):
            ProviderConfig(plane="naive")
        with pytest.raises(ValueError):
            ProviderConfig.fast().replace(plane="plans-off")

    def test_default_mirrors_historical_defaults(self):
        config = ProviderConfig()
        assert config == ProviderConfig.fast()
        assert config.plane == "fast"
        assert config.shards == 1
        assert config.shard_engine == "serial"
        assert config.journal_compact_bytes == 1 << 20

    def test_fast_preset_enables_plans(self):
        p = Provider(name="x", config=ProviderConfig.fast())
        assert p.kernel.plane == "fast"
        assert p.plans.enabled
        assert p.kernel.pool.enabled
        assert p.db.partitioned and p.fs.grouped_walk
        assert p._durability is not None
        assert p.kernel.audit.lazy
        assert p.kernel.flow_cache.enabled
        assert p.capindex.enabled

    def test_oracle_uses_every_reference_path(self):
        p = Provider(name="x", config=ProviderConfig.oracle())
        assert p.kernel.plane == "oracle"
        assert not p.kernel.pool.enabled
        assert not p.db.partitioned
        assert not p.fs.grouped_walk
        assert p._durability is None
        assert not p.kernel.audit.lazy
        # the flow cache, label transitions included, runs on both
        assert p.kernel.flow_cache.enabled
        assert not p.plans.enabled
        assert not p.capindex.enabled

    def test_frozen_with_replace(self):
        config = ProviderConfig()
        with pytest.raises(Exception):
            config.shards = 2
        assert config.replace(plane="oracle").plane == "oracle"
        assert config.plane == "fast"

    def test_describe_round_trips_json(self):
        desc = ProviderConfig.oracle().describe()
        assert json.loads(json.dumps(desc)) == desc

    def test_config_threads_through_provider(self):
        p = Provider(name="x", config=ProviderConfig.oracle())
        assert p.config == ProviderConfig.oracle()

    def test_config_threads_through_system(self):
        w5 = W5System(name="x", config=ProviderConfig.oracle())
        assert w5.provider.config.plane == "oracle"
        assert not w5.provider.plans.enabled

    def test_config_threads_through_restore(self):
        p = Provider(name="x", config=ProviderConfig.oracle())
        p.signup("amy", "pw")
        restored, __ = restore_provider(snapshot_provider(p),
                                        config=ProviderConfig.oracle())
        assert restored.config.plane == "oracle"
        assert not restored.db.partitioned
        assert not restored.fs.grouped_walk
        default, __ = restore_provider(snapshot_provider(p))
        assert default.plans.enabled and default.db.partitioned


class TestComponentKnobs:
    """The constructor parameters of the kernel, the components built
    on it and the memo layers.

    Adding a knob to one of these takes a deliberate edit here.  The
    kernel's ``plane`` is the only engine switch; memo bounds are
    module constants (``MAX_ENTRIES``, ``MAX_PLANS``), not parameters.
    """

    PARAMETERS = {
        Kernel: ["namespace", "resources", "floating_labels", "flow_cache",
                 "audit_max_events", "plane"],
        FlowCache: ["enabled"],
        PlanCache: ["provider"],
        LaunchCapIndex: ["provider"],
        DeclassificationService: ["kernel"],
        LabeledStore: ["kernel"],
        LabeledFileSystem: ["kernel"],
        ProcessPool: ["kernel", "max_idle"],
        restore_store: ["kernel", "snapshot"],
        restore_fs: ["kernel", "snapshot"],
    }

    @pytest.mark.parametrize("cls", list(PARAMETERS),
                             ids=lambda cls: cls.__name__)
    def test_constructor_parameters_are_pinned(self, cls):
        assert list(inspect.signature(cls).parameters) == \
            self.PARAMETERS[cls]


def engines(kernel):
    """Whether each component built on ``kernel`` runs its fast engine."""
    provider = SimpleNamespace(kernel=kernel)
    return {"audit": kernel.audit.lazy, "pool": kernel.pool.enabled,
            "db": LabeledStore(kernel).partitioned,
            "fs": LabeledFileSystem(kernel).grouped_walk,
            "plans": PlanCache(provider).enabled,
            "capindex": LaunchCapIndex(provider).enabled}


def on_kernel():
    return (Kernel(),)


def on_provider():
    return (SimpleNamespace(kernel=Kernel()),)


#: ``(callable, its positional arguments, a keyword it no longer takes)``
#: for every engine switch the kernel's plane replaced, and the
#: federation knobs the providers' plane (or a constant) replaced.
DELETED_KEYWORDS = [
    (Kernel, tuple, "recycle"),
    (Kernel, tuple, "lazy_audit"),
    (ProcessPool, on_kernel, "enabled"),
    (LabeledStore, on_kernel, "partitioned"),
    (LabeledFileSystem, on_kernel, "grouped_walk"),
    (DeclassificationService, on_kernel, "cache_authority"),
    (PlanCache, on_provider, "enabled"),
    (LaunchCapIndex, on_provider, "enabled"),
    (restore_store, lambda: (Kernel(), {"tables": []}), "partitioned"),
    (restore_fs, lambda: (Kernel(), {"root": {}}), "grouped_walk"),
    (ProviderLink, lambda: (Provider(name="a"), Provider(name="b")),
     "config"),
    (FederationFabric, lambda: (2,), "federation"),
    (FederationFabric, lambda: (2,), "name_prefix"),
]


class TestOnePlaneSwitch:
    """``Kernel(plane=)`` is the one engine switch: every component
    takes its engine from the kernel it is built on."""

    def test_bare_kernel_is_the_fast_plane_everywhere(self):
        kernel = Kernel()
        assert kernel.plane == "fast"
        assert all(engines(kernel).values()), engines(kernel)

    def test_oracle_kernel_is_the_reference_everywhere(self):
        assert not any(engines(Kernel(plane="oracle")).values())

    def test_unknown_plane_rejected_like_the_config(self):
        with pytest.raises(ValueError) as from_kernel:
            Kernel(plane="naive")
        with pytest.raises(ValueError) as from_config:
            ProviderConfig(plane="naive")
        assert str(from_kernel.value) == str(from_config.value)

    @pytest.mark.parametrize(
        "target, args, keyword", DELETED_KEYWORDS,
        ids=[f"{t.__name__}-{k}" for t, __, k in DELETED_KEYWORDS])
    def test_deleted_engine_keywords_raise(self, target, args, keyword):
        with pytest.raises(TypeError, match=keyword):
            target(*args(), **{keyword: True})


class TestDeprecatedKeywords:
    """The per-component flag keywords once warned; now they are gone.

    The test names are kept from when the keywords were deprecated;
    each now asserts that the old spelling is rejected outright.
    """

    def test_legacy_provider_kwarg_warns(self):
        with pytest.raises(TypeError):
            Provider(name="x", request_plans=True)
        with pytest.raises(TypeError):
            ProviderConfig(**{"lazy_audit": False})

    def test_legacy_system_kwarg_warns(self):
        with pytest.raises(TypeError):
            W5System(name="x", recycle_processes=False)


class TestMetricsAttach:
    def test_attach_covers_every_plane(self):
        """``Metrics.attach`` names the provider whose span histograms
        it reads; every plane's counters come from ``stats()``."""
        w5 = W5System(name="x", config=ProviderConfig.fast(), tracing=True)
        w5.add_user("amy", apps=("blog",))
        metrics = Metrics(w5.audit()).attach(w5.provider)
        w5.client("amy").get("/app/blog/post", title="t", body="b")
        w5.client("amy").get("/app/blog/list", author="amy")
        assert "gateway.admission" in metrics.latency_histograms()
        stats = w5.provider.stats()
        assert stats["flow"]["hit_total"] > 0
        assert stats["plane"] == "fast"
        assert stats["plans"]["misses"] >= 1
        assert stats["persistence"]["incremental_persistence"]
        assert stats["gateway"]["exports_allowed"] >= 2
        assert stats["audit"]["dropped"] == 0


class TestExplain:
    def test_explain_renders_whether_or_not_enabled(self):
        for config in (ProviderConfig.oracle(), ProviderConfig.fast()):
            w5 = W5System(name="x", config=config)
            w5.add_user("amy", apps=("blog",))
            desc = w5.provider.explain("blog", "amy")
            assert desc["planned"]
            assert desc["dispatch_enabled"] == (config.plane == "fast")
            assert desc["app"]["name"] == "blog"
            assert desc["config"] == config.describe()
            assert json.loads(json.dumps(desc)) == desc

    def test_explain_reports_bypass(self):
        w5 = W5System(name="x", config=ProviderConfig.fast())
        w5.add_user("amy", apps=("blog",))
        w5.provider.set_integrity_policy("amy", require_endorsed=True)
        desc = w5.provider.explain("blog", "amy")
        assert not desc["planned"]
        assert "reason" in desc

    def test_plan_cli_renders(self, tmp_path, capsys):
        from repro.analysis.plancmd import run

        w5 = W5System(name="x", config=ProviderConfig.fast())
        w5.add_user("amy", apps=("blog",))
        w5.client("amy").get("/app/blog/list", author="amy")
        path = tmp_path / "explain.json"
        path.write_text(json.dumps(w5.provider.explain("blog", "amy")))
        assert run([str(path)]) == 0
        out = capsys.readouterr().out
        assert "# Request plan" in out
        assert "app:blog" in out
        assert "epoch" in out.lower()
        # every plan field rendered is one the plan carries, so none
        # prints as a None placeholder (the config section below it
        # echoes the config's own values verbatim)
        plan_part, __, config_part = out.partition("## Provider config")
        assert config_part
        assert "None" not in plan_part
        assert "## Admission" not in out
        # read verdicts live in the flow cache, not in the plan
        assert "## Partition verdicts" not in out
