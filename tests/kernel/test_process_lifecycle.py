"""Unit tests for process creation, spawn flow checks, and exit."""

import pytest

from repro.labels import CapabilityError, CapabilitySet, Label, minus, plus
from repro.kernel import (DeadProcess, Kernel, NoSuchProcess)
from repro.kernel.kernel import EXITED_RING


@pytest.fixture()
def kernel():
    return Kernel()


class TestTrustedSpawn:
    def test_spawn_trusted_basic(self, kernel):
        p = kernel.spawn_trusted("login")
        assert p.alive
        assert kernel.process(p.pid) is p
        assert p.slabel == Label.EMPTY

    def test_pids_unique(self, kernel):
        pids = {kernel.spawn_trusted(f"p{i}").pid for i in range(10)}
        assert len(pids) == 10

    def test_spawn_trusted_with_labels(self, kernel):
        root = kernel.spawn_trusted("root")
        t = kernel.create_tag(root, purpose="bob")
        p = kernel.spawn_trusted("worker", slabel=Label([t]))
        assert t in p.slabel

    def test_audit_records_spawn(self, kernel):
        kernel.spawn_trusted("svc")
        assert kernel.audit.count(category="spawn", allowed=True) == 1


class TestChildSpawn:
    def test_child_inherits_labels_by_default(self, kernel):
        root = kernel.spawn_trusted("root")
        t = kernel.create_tag(root, purpose="x")
        kernel.change_label(root, secrecy=Label([t]))
        child_sys = kernel.syscalls_for(root).spawn("child")
        assert t in child_sys.my_secrecy()

    def test_grant_must_be_subset_of_parent(self, kernel):
        root = kernel.spawn_trusted("root")
        stranger = kernel.spawn_trusted("stranger")
        t = kernel.create_tag(stranger, purpose="not-roots")
        with pytest.raises(CapabilityError):
            kernel.spawn(root, "child", grant=CapabilitySet([plus(t)]))

    def test_parent_can_delegate_owned_caps(self, kernel):
        root = kernel.spawn_trusted("root")
        t = kernel.create_tag(root, purpose="x")
        child = kernel.spawn(root, "child",
                             grant=CapabilitySet([plus(t), minus(t)]))
        assert child.caps.owns(t)

    def test_tainted_parent_cannot_spawn_clean_child(self, kernel):
        """A parent carrying taint it cannot shed must not launder it
        into an untainted child."""
        root = kernel.spawn_trusted("root")
        t = kernel.create_tag(root, purpose="secret")
        tainted = kernel.spawn_trusted("tainted", slabel=Label([t]))
        with pytest.raises(Exception):
            kernel.spawn(tainted, "laundry", slabel=Label.EMPTY)

    def test_tainted_parent_with_minus_can(self, kernel):
        root = kernel.spawn_trusted("root")
        t = kernel.create_tag(root, purpose="secret")
        declas = kernel.spawn_trusted("declas", slabel=Label([t]),
                                      caps=CapabilitySet([minus(t)]))
        child = kernel.spawn(declas, "clean", slabel=Label.EMPTY)
        assert child.slabel == Label.EMPTY

    def test_child_owner_user_inherited(self, kernel):
        root = kernel.spawn_trusted("root", owner_user="bob")
        child = kernel.spawn(root, "child")
        assert child.owner_user == "bob"

    def test_denied_spawn_audited(self, kernel):
        root = kernel.spawn_trusted("root")
        t = kernel.create_tag(root, purpose="secret")
        tainted = kernel.spawn_trusted("tainted", slabel=Label([t]))
        with pytest.raises(Exception):
            kernel.spawn(tainted, "laundry", slabel=Label.EMPTY)
        assert kernel.audit.count(category="spawn", allowed=False) == 1


class TestExit:
    def test_exit_marks_dead_and_closes_endpoints(self, kernel):
        p = kernel.spawn_trusted("p")
        ep = kernel.create_endpoint(p, name="port")
        kernel.exit(p, value=42)
        assert not p.alive
        assert p.exit_value == 42
        assert ep.closed

    def test_dead_process_cannot_act(self, kernel):
        p = kernel.spawn_trusted("p")
        kernel.exit(p)
        with pytest.raises(DeadProcess):
            kernel.create_endpoint(p)
        with pytest.raises(DeadProcess):
            kernel.create_tag(p)

    def test_double_exit_is_noop(self, kernel):
        p = kernel.spawn_trusted("p")
        kernel.exit(p, value=1)
        kernel.exit(p, value=2)
        assert p.exit_value == 1

    def test_unknown_pid_raises(self, kernel):
        with pytest.raises(NoSuchProcess):
            kernel.process(999)


class TestReaping:
    """The table holds live processes; exits go to a bounded ring."""

    def test_processes_lists_live_only(self, kernel):
        live = kernel.spawn_trusted("live")
        dead = kernel.spawn_trusted("dead")
        kernel.exit(dead)
        assert kernel.processes() == [live]

    def test_recent_exit_still_resolves(self, kernel):
        p = kernel.spawn_trusted("p")
        kernel.exit(p, value="bye")
        found = kernel.process(p.pid)
        assert found is p
        assert not found.alive
        assert found.exit_value == "bye"

    def test_exit_pushed_out_of_ring_raises_typed_error(self, kernel):
        first = kernel.spawn_trusted("first")
        kernel.exit(first)
        for i in range(EXITED_RING):
            kernel.exit(kernel.spawn_trusted(f"p{i}"))
        with pytest.raises(NoSuchProcess):
            kernel.process(first.pid)
        # the newest exit is still within reach
        newest = kernel.spawn_trusted("newest")
        kernel.exit(newest, value=7)
        assert kernel.process(newest.pid).exit_value == 7


class TestTagCreation:
    def test_creator_owns_new_tag(self, kernel):
        p = kernel.spawn_trusted("p")
        t = kernel.create_tag(p, purpose="mine")
        assert p.caps.owns(t)

    def test_tag_owner_defaults_to_process_user(self, kernel):
        p = kernel.spawn_trusted("p", owner_user="bob")
        t = kernel.create_tag(p)
        assert t.owner == "bob"

    def test_tag_registered_in_kernel_registry(self, kernel):
        p = kernel.spawn_trusted("p")
        t = kernel.create_tag(p)
        assert kernel.tags.lookup(t.tag_id) is t
