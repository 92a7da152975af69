"""The five benchmark workloads: seeded inputs, deployment, ops, checks.

Every workload is a closed loop: one client in this process issues an
op, waits for its reply, checks it, then issues the next.  Deployments
are built through public API only (``ProviderConfig.fast()``, the
default journal compaction threshold, a production-style bounded audit
ring, an unmetered ``ResourceManager``), so the benchmark keeps working
while the configuration flags behind ``fast()`` are collapsed.

The seed drives everything the program is asked to do — which viewer,
which friend, session order, which author edits, post titles and
bodies, file names and contents — and the program sees only the
generated requests.  ``scale`` shrinks populations and op budgets
together (the smoke test runs at 0.01).

The harness drives each workload through six calls: ``setup`` builds
and seeds the deployment, ``prepare(i)`` makes op ``i``'s inputs
(untimed), ``execute(i, inputs)`` is the timed op, ``operate(i)`` is
the operator's work between ops, ``check`` judges the op's output
(untimed), and ``verify`` runs the end-of-run invariants.
"""

from __future__ import annotations

import random
from typing import Any

from repro.apps import install_standard_apps
from repro.federation import ProviderLink, converged
from repro.net import SESSION_COOKIE, HttpRequest, HttpResponse
from repro.platform import Provider, ProviderConfig, ShardedProvider
from repro.resources import ResourceManager

#: A production-style bounded audit ring.  Unbounded, the log grows for
#: the whole run and its garbage-collector pauses dominate the numbers.
AUDIT_RING = 20_000
PASSWORD = "pw"
#: ``--seconds`` for which a workload runs ``base_ops`` measured ops
#: (``run_seconds`` in BENCHMARK.json).
REFERENCE_SECONDS = 10


class SetupError(RuntimeError):
    """The deployment could not be built as the workload specifies."""


def _provider(name: str = "w5") -> Provider:
    provider = Provider(name=name, resources=ResourceManager(),
                        config=ProviderConfig.fast(),
                        audit_max_events=AUDIT_RING)
    install_standard_apps(provider)
    return provider


def _get(path: str, cookie: str, **params: Any) -> HttpRequest:
    return HttpRequest("GET", path, params=params,
                       cookies={SESSION_COOKIE: cookie})


def _read(cookie: str, author: str, title: str) -> HttpRequest:
    return _get("/app/blog/read", cookie, author=author, title=title)


def _post(cookie: str, title: str, body: str) -> HttpRequest:
    return _get("/app/blog/post", cookie, title=title, body=body)


def _is(resp: HttpResponse, status: int, body: Any) -> bool:
    return resp.status == status and resp.body == body


def _post_body(author: str, title: str, body: str) -> dict[str, str]:
    return {"author": author, "title": title, "body": body}


def _login(front: Any, username: str) -> str:
    resp = front.handle_request(HttpRequest(
        "POST", "/login", params={"username": username,
                                  "password": PASSWORD}))
    if resp.status != 200:
        raise SetupError(f"login for {username} answered {resp.status}")
    return resp.set_cookies[SESSION_COOKIE]


def _expect_ok(resp: HttpResponse, what: str) -> None:
    if resp.status != 200:
        raise SetupError(f"{what} answered {resp.status}: {resp.body}")


class Workload:
    """Base class: seeded rng, scaled sizes, op budget."""

    name = ""
    #: Measured ops at ``--seconds REFERENCE_SECONDS`` and scale 1.
    base_ops = 0
    #: Ops run (and checked) after setup but before measuring.
    warmup_ops = 0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.scale = scale
        self.rng = random.Random(f"{self.name}/{seed}")

    def size(self, base: int, floor: int) -> int:
        return max(floor, round(base * self.scale))

    def token(self, prefix: str) -> str:
        return f"{prefix}{self.rng.getrandbits(48):012x}"

    def ops(self, seconds: float) -> int:
        return max(1, round(self.base_ops * self.scale * seconds
                            / REFERENCE_SECONDS))

    # -- the calls the harness makes --------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> Any:
        raise NotImplementedError

    def execute(self, i: int, inputs: Any) -> Any:
        raise NotImplementedError

    def check(self, i: int, inputs: Any, output: Any) -> bool:
        raise NotImplementedError

    def operate(self, i: int) -> None:
        """The operator's work after op ``i`` (snapshots): counted in
        throughput and in the per-layer ledger, not in op latency."""

    def verify(self) -> list[str]:
        """End-of-run invariant violations (empty when all hold)."""
        return []

    # -- what the per-layer ledger reads --------------------------------

    def providers(self) -> list[Provider]:
        """In-process providers whose public ``stats()`` the ledger
        reads (shard children are out of reach)."""
        return []

    def links(self) -> list[ProviderLink]:
        return []

    def close(self) -> None:
        """Stop every process the deployment started."""


def _signup_all(front: Any, users: list[str]) -> None:
    for user in users:
        front.signup(user, PASSWORD)
        front.enable_app(user, "blog")


def _usernames(n: int) -> list[str]:
    return [f"u{k:04d}" for k in range(n)]


def _friend_lists(rng: random.Random,
                  users: list[str]) -> dict[str, set[str]]:
    """Up to eight seeded friends per user."""
    k = min(8, len(users) // 4)
    return {u: set(rng.sample(users, k)) - {u} for u in users}


def _grant_all(front: Any, friends: dict[str, set[str]]) -> None:
    for user, names in friends.items():
        front.grant_builtin_declassifier(
            user, "friends-only", {"friends": sorted(names)})


class TaintedRead(Workload):
    """One logged-in viewer reads their own post, over and over."""

    name = "tainted_read"
    base_ops = 150_000
    warmup_ops = 2_000

    def setup(self) -> None:
        rng = self.rng
        users = _usernames(self.size(1000, 16))
        friends = _friend_lists(rng, users)
        self.provider = p = _provider()
        _signup_all(p, users)
        # a seeded set of authors (the viewer among them) fill the
        # table before the grants land, so posting stays O(users)
        authors = rng.sample(users, self.size(64, 4))
        self.viewer = authors[0]
        for author in authors:
            cookie = _login(p, author)
            title, body = self.token("t"), self.token("b")
            _expect_ok(p.handle_request(_post(cookie, title, body)), "post")
            if author == self.viewer:
                self.cookie, self.title = cookie, title
                self.expected = _post_body(author, title, body)
        _grant_all(p, friends)

    def prepare(self, i: int) -> HttpRequest:
        return _read(self.cookie, self.viewer, self.title)

    def execute(self, i: int, request: HttpRequest) -> HttpResponse:
        return self.provider.handle_request(request)

    def check(self, i: int, request: HttpRequest,
              resp: HttpResponse) -> bool:
        return _is(resp, 200, self.expected)

    def providers(self) -> list[Provider]:
        return [self.provider]


class PolicyChurn(Workload):
    """Friends read each other's posts in batches while authors keep
    editing their friend lists."""

    name = "policy_churn"
    base_ops = 1_024
    warmup_ops = 16
    #: One friend-list edit before every ``EDIT_EVERY``-th batch.
    EDIT_EVERY = 16

    def setup(self) -> None:
        rng = self.rng
        # 500 users, not tainted_read's 1,000: signup is quadratic in
        # users, and three 1,000-user builds per run would not fit the
        # benchmark's time budget for both workloads
        users = _usernames(self.size(500, 24))
        self.users = users
        viewers = rng.sample(users, self.size(64, 4))
        self.viewers = viewers
        friends = _friend_lists(rng, users)
        self.friend_of = {}
        for viewer in viewers:
            author = rng.choice([u for u in users if u != viewer])
            self.friend_of[viewer] = author
            friends[author].add(viewer)
        self.friends = friends
        #: Edits toggle only non-viewers, so no read or probe verdict
        #: ever depends on which edits came first.
        viewer_set = set(viewers)
        self.fillers = [u for u in users if u not in viewer_set]
        befriended = set(self.friend_of.values())
        #: Authors no viewer is a friend of: the non-friend probes' targets.
        self.closed = rng.sample(
            [u for u in self.fillers if u not in befriended], self.size(8, 2))
        for author in self.closed:
            friends[author] -= viewer_set
        self.provider = p = _provider()
        _signup_all(p, users)
        self.cookies = {v: _login(p, v) for v in viewers}
        self.posts: dict[str, tuple[str, str]] = {}
        for author in sorted(befriended | set(self.closed)):
            cookie = self.cookies.get(author) or _login(p, author)
            title, body = self.token("t"), self.token("b")
            _expect_ok(p.handle_request(_post(cookie, title, body)), "post")
            self.posts[author] = (title, body)
        _grant_all(p, friends)
        self.probes = 0
        self.probes_refused = 0
        self.denied_before = p.gateway.exports_denied

    def prepare(self, i: int) -> tuple:
        rng = self.rng
        edit = None
        if i % self.EDIT_EVERY == 0:
            author = rng.choice(self.users)
            self.friends[author] ^= {rng.choice(self.fillers)}
            edit = (author, set(self.friends[author]))
        order = list(self.viewers)
        rng.shuffle(order)
        requests = []
        for viewer in order:
            author = self.friend_of[viewer]
            requests.append(_read(self.cookies[viewer], author,
                                  self.posts[author][0]))
        prober = rng.choice(self.viewers)
        target = rng.choice(self.closed)
        at = rng.randrange(len(requests) + 1)
        requests.insert(at, _read(self.cookies[prober], target,
                                  self.posts[target][0]))
        return edit, requests, order, at

    def execute(self, i: int, inputs: tuple) -> list[HttpResponse]:
        edit, requests = inputs[0], inputs[1]
        if edit is not None:
            self.provider.update_declassifier_config(
                edit[0], "friends-only", friends=edit[1])
        return self.provider.handle_batch(requests)

    def check(self, i: int, inputs: tuple,
              responses: list[HttpResponse]) -> bool:
        __, requests, order, at = inputs
        probe = responses[at]
        reads = responses[:at] + responses[at + 1:]
        self.probes += 1
        refused = _is(probe, 403, {"error": "not authorized"})
        self.probes_refused += refused
        good = refused and len(reads) == len(order)
        for viewer, resp in zip(order, reads):
            author = self.friend_of[viewer]
            title, body = self.posts[author]
            good = good and _is(resp, 200, _post_body(author, title, body))
        return good

    def verify(self) -> list[str]:
        problems = []
        if self.probes_refused != self.probes:
            problems.append(f"non-friend probe served "
                            f"{self.probes - self.probes_refused} times")
        denied = self.provider.gateway.exports_denied - self.denied_before
        if denied != self.probes:
            problems.append(f"gateway denied {denied} exports for "
                            f"{self.probes} probes")
        return problems

    def providers(self) -> list[Provider]:
        return [self.provider]


class LabeledWrite(Workload):
    """Edit a post, then read it back, while the operator snapshots."""

    name = "labeled_write"
    base_ops = 60_000
    warmup_ops = 500

    def setup(self) -> None:
        rng = self.rng
        users = _usernames(self.size(256, 8))
        self.snapshot_every = self.size(1000, 10)
        self.provider = p = _provider()
        _signup_all(p, users)
        _grant_all(p, _friend_lists(rng, users))
        self.sessions = rng.sample(users, self.size(64, 4))
        self.cookies = {}
        self.titles: dict[str, list[str]] = {}
        #: (author, title) -> the body last written.
        self.expected: dict[tuple[str, str], str] = {}
        for author in self.sessions:
            cookie = self.cookies[author] = _login(p, author)
            titles = self.titles[author] = []
            for __ in range(8):
                title, body = self.token("t"), self.token("b")
                _expect_ok(p.handle_request(_post(cookie, title, body)),
                           "post")
                titles.append(title)
                self.expected[(author, title)] = body

    def prepare(self, i: int) -> tuple:
        author = self.rng.choice(self.sessions)
        title = self.rng.choice(self.titles[author])
        body = self.token(f"{i}-")
        cookie = self.cookies[author]
        return (author, title, body,
                _get("/app/blog/edit", cookie, author=author, title=title,
                     body=body),
                _read(cookie, author, title))

    def execute(self, i: int, inputs: tuple) -> tuple:
        p = self.provider
        return p.handle_request(inputs[3]), p.handle_request(inputs[4])

    def operate(self, i: int) -> None:
        if (i + 1) % self.snapshot_every == 0:
            self.provider.snapshot_incremental()

    def check(self, i: int, inputs: tuple, output: tuple) -> bool:
        author, title, body = inputs[:3]
        self.expected[(author, title)] = body
        return (_is(output[0], 200, {"edited": 1})
                and _is(output[1], 200, _post_body(author, title, body)))

    def verify(self) -> list[str]:
        stale = 0
        for (author, title), body in self.expected.items():
            resp = self.provider.handle_request(
                _read(self.cookies[author], author, title))
            stale += not _is(resp, 200, _post_body(author, title, body))
        return [f"{stale} posts do not hold their last write"] if stale \
            else []

    def providers(self) -> list[Provider]:
        return [self.provider]


class FederatedSync(Workload):
    """Two linked providers; each op writes files on both sides and
    runs one federated sync round."""

    name = "delta_sync"
    base_ops = 2_500
    warmup_ops = 50
    USER = "bob"
    #: New home files per side per op.
    FILES = 5

    def setup(self) -> None:
        self.snapshot_every = self.size(250, 5)
        self.a = _provider("alpha")
        self.b = _provider("beta")
        for side in (self.a, self.b):
            side.signup(self.USER, PASSWORD)
        self.link = ProviderLink(self.a, self.b)
        self.link.link_account(self.USER)
        self.link.grant_sync(self.USER)
        n_files = self.size(1000, 10)
        for __ in range(n_files):
            self.a.store_user_data(self.USER, self.token("f"),
                                   self.token("d") * 4)
        mirrored = self.link.sync_user(self.USER)
        if mirrored != n_files:
            raise SetupError(f"initial mirror moved {mirrored} of "
                             f"{n_files} files")

    def prepare(self, i: int) -> tuple:
        return tuple(
            (self.token("f"), self.token("d") * 4)
            for __ in range(2 * self.FILES))

    def execute(self, i: int, files: tuple) -> int:
        a, b = self.a, self.b
        for k, (name, data) in enumerate(files):
            (a if k < self.FILES else b).store_user_data(self.USER, name,
                                                         data)
        return self.link.sync_user(self.USER)

    def operate(self, i: int) -> None:
        if (i + 1) % self.snapshot_every == 0:
            self.a.snapshot_incremental()
            self.b.snapshot_incremental()

    def check(self, i: int, files: tuple, moved: int) -> bool:
        return moved == len(files)

    def verify(self) -> list[str]:
        problems = []
        final = self.link.sync_user(self.USER)
        if final != 0:
            problems.append(f"final sync moved {final} files")
        if not converged(self.link, self.USER):
            problems.append("B's home files differ from A's")
        return problems

    def providers(self) -> list[Provider]:
        return [self.a, self.b]

    def links(self) -> list[ProviderLink]:
        return [self.link]


class ShardBatch(Workload):
    """Cross-shard batches on the fork engine: 64 sessions x 4 reads."""

    name = "shard_batch"
    base_ops = 1_000
    warmup_ops = 10
    READS = 4

    def setup(self) -> None:
        rng = self.rng
        users = _usernames(self.size(256, 8))
        self.front = front = ShardedProvider(
            n_shards=2, engine="fork", config=ProviderConfig.fast(),
            audit_max_events=AUDIT_RING, resources_factory=ResourceManager)
        install_standard_apps(front)
        _signup_all(front, users)
        _grant_all(front, _friend_lists(rng, users))
        # half the sessions live on each shard, so both children do the
        # same work per batch whatever the seed
        homes: dict[int, list[str]] = {0: [], 1: []}
        for user in users:
            homes[front.shard_of_user(user)].append(user)
        half = self.size(64, 4) // 2
        if min(len(h) for h in homes.values()) < half:
            raise SetupError("too few users on one shard")
        sessions = rng.sample(homes[0], half) + rng.sample(homes[1], half)
        self.cookies = {u: _login(front, u) for u in sessions}
        self.posts: list[tuple[str, str, str]] = []
        for user in sessions:
            for __ in range(self.READS):
                self.posts.append((user, self.token("t"), self.token("b")))
        for resp in front.handle_batch(
                [_post(self.cookies[u], t, b) for u, t, b in self.posts]):
            _expect_ok(resp, "post")

    def prepare(self, i: int) -> tuple:
        order = list(self.posts)
        self.rng.shuffle(order)
        return order, [_read(self.cookies[u], u, t) for u, t, __ in order]

    def execute(self, i: int, inputs: tuple) -> list[HttpResponse]:
        return self.front.handle_batch(inputs[1])

    def check(self, i: int, inputs: tuple,
              responses: list[HttpResponse]) -> bool:
        order = inputs[0]
        return len(responses) == len(order) and all(
            _is(resp, 200, _post_body(u, t, b))
            for (u, t, b), resp in zip(order, responses))

    def verify(self) -> list[str]:
        routed = self.front.stats()["routed"]
        return [] if all(routed) else [f"a shard served nothing: {routed}"]

    def close(self) -> None:
        self.front.shutdown()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (TaintedRead, PolicyChurn, LabeledWrite, FederatedSync,
                ShardBatch)
}
