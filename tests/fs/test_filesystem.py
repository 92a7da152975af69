"""Unit tests for the labeled filesystem."""

import re

import pytest

from repro.fs import (FsError, FsView, IsADirectory, LabeledFileSystem,
                      NoSuchPath, NotADirectory, PathExists, split_path)
from repro.kernel import Kernel
from repro.labels import (CapabilitySet, FlowCache, IntegrityViolation,
                          Label, SecrecyViolation, minus, plus)


@pytest.fixture()
def kernel():
    return Kernel()


@pytest.fixture()
def fs(kernel):
    return LabeledFileSystem(kernel)


@pytest.fixture()
def provider(kernel):
    return kernel.spawn_trusted("provider")


class TestPathHandling:
    def test_split_path(self):
        assert split_path("/a/b/c") == ["a", "b", "c"]
        assert split_path("a/b/") == ["a", "b"]
        assert split_path("/") == []

    def test_relative_components_rejected(self):
        with pytest.raises(FsError):
            split_path("/a/../b")


class TestBasicOps:
    def test_create_read_roundtrip(self, fs, provider):
        fs.create(provider, "/hello.txt", "world")
        assert fs.read(provider, "/hello.txt") == "world"

    def test_nested_dirs(self, fs, provider):
        fs.mkdir(provider, "/users")
        fs.mkdir(provider, "/users/bob")
        fs.create(provider, "/users/bob/photo.jpg", b"jpeg")
        assert fs.read(provider, "/users/bob/photo.jpg") == b"jpeg"
        assert fs.listdir(provider, "/users") == ["bob"]

    def test_write_bumps_version(self, fs, provider):
        fs.create(provider, "/f", "v1")
        fs.write(provider, "/f", "v2")
        assert fs.read(provider, "/f") == "v2"
        assert fs.stat(provider, "/f")["version"] == 2

    def test_missing_path(self, fs, provider):
        with pytest.raises(NoSuchPath):
            fs.read(provider, "/nope")

    def test_create_duplicate(self, fs, provider):
        fs.create(provider, "/f", 1)
        with pytest.raises(PathExists):
            fs.create(provider, "/f", 2)

    def test_read_directory_fails(self, fs, provider):
        fs.mkdir(provider, "/d")
        with pytest.raises(IsADirectory):
            fs.read(provider, "/d")

    def test_file_as_directory_fails(self, fs, provider):
        fs.create(provider, "/f", 1)
        with pytest.raises(NotADirectory):
            fs.create(provider, "/f/child", 2)

    def test_delete_file(self, fs, provider):
        fs.create(provider, "/f", 1)
        fs.delete(provider, "/f")
        assert not fs.exists(provider, "/f")

    def test_delete_nonempty_dir_fails(self, fs, provider):
        fs.mkdir(provider, "/d")
        fs.create(provider, "/d/f", 1)
        with pytest.raises(FsError):
            fs.delete(provider, "/d")

    def test_stat_fields(self, fs, provider):
        fs.create(provider, "/f", "abc")
        st = fs.stat(provider, "/f")
        assert st["size"] == 3 and not st["is_dir"]
        assert st["created_by"] == "provider"


class TestSecrecyEnforcement:
    def test_secret_file_unreadable_by_clean_process(self, fs, kernel, provider):
        t = kernel.create_tag(provider, purpose="bob")
        fs.create(provider, "/secret", "bobs-data", slabel=Label([t]))
        reader = kernel.spawn_trusted("reader")
        with pytest.raises(SecrecyViolation):
            fs.read(reader, "/secret")

    def test_tainted_process_reads_secret(self, fs, kernel, provider):
        t = kernel.create_tag(provider, purpose="bob")
        fs.create(provider, "/secret", "bobs-data", slabel=Label([t]))
        reader = kernel.spawn_trusted("reader", slabel=Label([t]))
        assert fs.read(reader, "/secret") == "bobs-data"

    def test_no_write_down(self, fs, kernel, provider):
        """A tainted process cannot copy secrets into a public file."""
        t = kernel.create_tag(provider, purpose="bob")
        fs.create(provider, "/public", "harmless")
        tainted = kernel.spawn_trusted("app", slabel=Label([t]))
        with pytest.raises(SecrecyViolation):
            fs.write(tainted, "/public", "stolen-secret")

    def test_tainted_process_writes_up(self, fs, kernel, provider):
        t = kernel.create_tag(provider, purpose="bob")
        fs.create(provider, "/bob-notes", "", slabel=Label([t]))
        tainted = kernel.spawn_trusted("app", slabel=Label([t]))
        fs.write(tainted, "/bob-notes", "processed")
        reader = kernel.spawn_trusted("r", slabel=Label([t]))
        assert fs.read(reader, "/bob-notes") == "processed"

    def test_create_cannot_launder_at_birth(self, fs, kernel, provider):
        """A tainted process may not create a clean file."""
        t = kernel.create_tag(provider, purpose="bob")
        tainted = kernel.spawn_trusted("app", slabel=Label([t]))
        with pytest.raises(SecrecyViolation):
            fs.create(tainted, "/leak", "secret", slabel=Label.EMPTY)

    def test_secret_directory_hides_entries(self, fs, kernel, provider):
        t = kernel.create_tag(provider, purpose="bob")
        fs.mkdir(provider, "/bob", slabel=Label([t]))
        clean = kernel.spawn_trusted("snoop")
        with pytest.raises(SecrecyViolation):
            fs.listdir(clean, "/bob")
        # resolution through the secret dir also fails
        assert not fs.exists(clean, "/bob/anything")

    def test_denials_are_audited(self, fs, kernel, provider):
        t = kernel.create_tag(provider, purpose="bob")
        fs.create(provider, "/secret", "x", slabel=Label([t]))
        snoop = kernel.spawn_trusted("snoop")
        with pytest.raises(SecrecyViolation):
            fs.read(snoop, "/secret")
        assert kernel.audit.count(category="file_read", allowed=False) == 1


class TestWalkDenial:
    """A path walk through an unreadable directory fails identically
    with and without the flow cache, also once the deny is cached."""

    @staticmethod
    def denied_walks(cache):
        """Three walks into a secret directory: their masked messages,
        the refusal records, and the ``fs.read`` (misses, hits) they
        added to the cache's counters."""
        kernel = Kernel(flow_cache=cache)
        fs = LabeledFileSystem(kernel)
        provider = kernel.spawn_trusted("provider")
        t = kernel.create_tag(provider, purpose="bob")
        fs.mkdir(provider, "/users")
        fs.mkdir(provider, "/users/bob", slabel=Label([t]))
        fs.create(provider, "/users/bob/diary", "x", slabel=Label([t]))

        def counts():
            s = cache.stats()
            return (s["misses"].get("fs.read", 0),
                    s["hits"].get("fs.read", 0))

        before = counts()
        messages = []
        for _ in range(3):  # a fresh process each time, same label state
            snoop = kernel.spawn_trusted("snoop")
            with pytest.raises(SecrecyViolation) as err:
                fs.read(snoop, "/users/bob/diary")
            messages.append(re.sub(r"\d+", "#", str(err.value)))
        refusals = [(e.category, e.subject, e.detail)
                    for e in kernel.audit if not e.allowed]
        after = counts()
        return messages, refusals, (after[0] - before[0],
                                    after[1] - before[1])

    def test_cached_deny_raises_and_audits_like_uncached(self):
        messages, refusals, counted = self.denied_walks(FlowCache())
        assert (messages, refusals) == \
            self.denied_walks(FlowCache(enabled=False))[:2]
        assert refusals == [("file_read", "snoop",
                             "read /users/bob refused")] * 3
        # walk 1 computed "/" and "/users/bob" and hit "/users"; walks 2
        # and 3 took all three verdicts, the deny too, from the cache
        assert counted == (2, 7)

    #: (operation, path, error, masked message, refusal detail or None).
    #: Final-node denials (read, stat, listdir), parent denials (create,
    #: mkdir, delete), and the shape errors that precede a denial.
    CASES = [
        ("read", "/pub/secret", SecrecyViolation,
         "snoop cannot read /pub/secret: object secrecy Label{#:bob} exceeds "
         "process secrecy Label{}", "read /pub/secret refused"),
        ("read", "/pub/plain", IntegrityViolation,
         "judge requires integrity Label{#:w} but /pub/plain only has Label{}",
         "read /pub/plain refused"),
        ("stat", "/pub/secret", SecrecyViolation,
         "snoop cannot read /pub/secret: object secrecy Label{#:bob} exceeds "
         "process secrecy Label{}", "read /pub/secret refused"),
        ("stat", "/pub/vault", SecrecyViolation,
         "snoop cannot read /pub/vault: object secrecy Label{#:bob} exceeds "
         "process secrecy Label{}", "read /pub/vault refused"),
        ("stat", "/pub/plain", IntegrityViolation,
         "judge requires integrity Label{#:w} but /pub/plain only has Label{}",
         "read /pub/plain refused"),
        ("listdir", "/pub/vault", SecrecyViolation,
         "snoop cannot read /pub/vault: object secrecy Label{#:bob} exceeds "
         "process secrecy Label{}", "read /pub/vault refused"),
        ("create", "/pub/vault/x", SecrecyViolation,
         "snoop cannot read /pub/vault/x: object secrecy Label{#:bob} exceeds "
         "process secrecy Label{}", "read /pub/vault/x refused"),
        ("mkdir", "/pub/vault/x", SecrecyViolation,
         "snoop cannot read /pub/vault/x: object secrecy Label{#:bob} exceeds "
         "process secrecy Label{}", "read /pub/vault/x refused"),
        ("delete", "/pub/vault/x", SecrecyViolation,
         "snoop cannot read /pub/vault/x: object secrecy Label{#:bob} exceeds "
         "process secrecy Label{}", "read /pub/vault/x refused"),
        ("read", "/pub/vault/x", SecrecyViolation,
         "snoop cannot read /pub/vault: object secrecy Label{#:bob} exceeds "
         "process secrecy Label{}", "read /pub/vault refused"),
        # shape before denial: no refusal record
        ("read", "/pub/vault", IsADirectory, "/pub/vault", None),
        ("listdir", "/pub/secret", NotADirectory, "/pub/secret", None),
        ("read", "/pub/secret/x", NotADirectory,
         "/pub/secret is not a directory", None),
        ("create", "/pub/secret/x", NotADirectory,
         "parent of /pub/secret/x is not a directory", None),
        ("mkdir", "/pub/secret/x", NotADirectory,
         "parent of /pub/secret/x is not a directory", None),
        ("delete", "/pub/secret/x", NotADirectory,
         "parent of /pub/secret/x is not a directory", None),
    ]

    @staticmethod
    def attempts(cache, op, path, subject):
        """Two attempts of one refused operation by fresh processes of
        the same label state (the second meets a cached verdict): the
        errors with digits masked, and the refusal records."""
        kernel = Kernel(flow_cache=cache)
        fs = LabeledFileSystem(kernel)
        provider = kernel.spawn_trusted("provider")
        t = kernel.create_tag(provider, purpose="bob")
        w = kernel.create_tag(provider, purpose="w", kind="integrity")
        high = Label([w])
        fs.root.ilabel = high
        fs.mkdir(provider, "/pub", ilabel=high)
        fs.create(provider, "/pub/secret", "x", slabel=Label([t]),
                  ilabel=high)
        fs.mkdir(provider, "/pub/vault", slabel=Label([t]), ilabel=high)
        fs.create(provider, "/pub/vault/x", "x", slabel=Label([t]),
                  ilabel=high)
        fs.create(provider, "/pub/plain", "p")
        args = ("data",) if op == "create" else ()
        errors = []
        for _ in range(2):
            proc = kernel.spawn_trusted(
                subject, ilabel=high if subject == "judge" else Label.EMPTY)
            try:
                getattr(fs, op)(proc, path, *args)
            except Exception as err:  # noqa: BLE001 - compared below
                errors.append((type(err), re.sub(r"\d+", "#", str(err))))
        refusals = [(e.category, e.subject, e.detail)
                    for e in kernel.audit if not e.allowed]
        return errors, refusals

    @pytest.mark.parametrize("op,path,error,message,refusal", CASES)
    def test_denials_and_their_precedence(self, op, path, error, message,
                                          refusal):
        subject = "judge" if path == "/pub/plain" else "snoop"
        cached = self.attempts(FlowCache(), op, path, subject)
        assert cached == self.attempts(FlowCache(enabled=False), op, path,
                                       subject)
        errors, refusals = cached
        assert errors == [(error, message)] * 2
        expected = [] if refusal is None else [("file_read", subject,
                                                refusal)] * 2
        assert refusals == expected


class TestWriteProtection:
    """W5 §3.1: user data is write-protected by default; write privilege
    is delegated via the owner's write tag (integrity)."""

    def _setup_protected_file(self, fs, kernel, provider):
        w = kernel.create_tag(provider, purpose="bob-write", kind="integrity")
        owner = kernel.spawn_trusted("bob-agent", ilabel=Label([w]),
                                     caps=CapabilitySet.owning(w))
        fs.create(owner, "/bob-photo", b"original", ilabel=Label([w]))
        return w, owner

    def test_unprivileged_app_cannot_overwrite(self, fs, kernel, provider):
        w, __ = self._setup_protected_file(fs, kernel, provider)
        vandal = kernel.spawn_trusted("vandal")
        with pytest.raises(IntegrityViolation):
            fs.write(vandal, "/bob-photo", b"defaced")
        assert fs.read(provider, "/bob-photo") == b"original"

    def test_unprivileged_app_cannot_delete(self, fs, kernel, provider):
        w, __ = self._setup_protected_file(fs, kernel, provider)
        vandal = kernel.spawn_trusted("vandal")
        with pytest.raises(IntegrityViolation):
            fs.delete(vandal, "/bob-photo")

    def test_delegated_writer_can_write(self, fs, kernel, provider):
        w, owner = self._setup_protected_file(fs, kernel, provider)
        editor = kernel.spawn_trusted("editor", caps=CapabilitySet([plus(w)]))
        fs.write(editor, "/bob-photo", b"cropped")
        assert fs.read(provider, "/bob-photo") == b"cropped"

    def test_everyone_can_still_read(self, fs, kernel, provider):
        self._setup_protected_file(fs, kernel, provider)
        reader = kernel.spawn_trusted("reader")
        assert fs.read(reader, "/bob-photo") == b"original"


class TestWalk:
    def test_walk_skips_unreadable_subtrees(self, fs, kernel, provider):
        t = kernel.create_tag(provider, purpose="bob")
        fs.mkdir(provider, "/pub")
        fs.create(provider, "/pub/a", 1)
        fs.mkdir(provider, "/priv", slabel=Label([t]))
        priv_writer = kernel.spawn_trusted("w", slabel=Label([t]))
        fs.create(priv_writer, "/priv/b", 2)
        snoop = kernel.spawn_trusted("snoop")
        paths = [p for p, __ in fs.walk(snoop)]
        assert "/pub/a" in paths
        assert all("/priv" not in p for p in paths)

    def test_walk_sees_everything_for_cleared(self, fs, kernel, provider):
        t = kernel.create_tag(provider, purpose="bob")
        fs.mkdir(provider, "/priv", slabel=Label([t]))
        cleared = kernel.spawn_trusted("c", slabel=Label([t]))
        fs.create(cleared, "/priv/b", 2)
        paths = [p for p, __ in fs.walk(cleared)]
        assert "/priv/b" in paths


class TestFsView:
    def test_view_curries_process(self, fs, kernel, provider):
        view = FsView(fs, provider)
        view.mkdir("/d")
        view.create("/d/f", "x")
        assert view.read("/d/f") == "x"
        assert view.listdir("/d") == ["f"]
        assert view.exists("/d/f")
        view.write("/d/f", "y")
        assert view.stat("/d/f")["version"] == 2
        view.delete("/d/f")
        assert not view.exists("/d/f")

    def test_view_enforces_labels(self, fs, kernel, provider):
        t = kernel.create_tag(provider, purpose="s")
        fs.create(provider, "/s", "secret", slabel=Label([t]))
        snoop_view = FsView(fs, kernel.spawn_trusted("snoop"))
        with pytest.raises(SecrecyViolation):
            snoop_view.read("/s")
