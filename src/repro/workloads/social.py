"""Synthetic social-graph workloads.

The paper's scenarios revolve around users, friend lists, photos, and
blog posts.  No public dataset is required (see DESIGN.md §2): the
experiments need population *structure*, which we synthesize with
standard random-graph models (Watts–Strogatz for high clustering,
Barabási–Albert for degree skew) and deterministic seeds so every run
of a benchmark sees the same world.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx

#: Supported friend-graph models.
WATTS_STROGATZ = "watts-strogatz"
BARABASI_ALBERT = "barabasi-albert"
COMPLETE = "complete"

_ADJECTIVES = ["sunny", "quiet", "vivid", "mellow", "brisk", "dusty",
               "amber", "plaid", "novel", "mossy"]
_NOUNS = ["falcon", "harbor", "meadow", "copper", "signal", "ember",
          "willow", "summit", "prairie", "lantern"]


@dataclass
class SocialWorld:
    """A synthetic population: users, friendships, and content."""

    users: list[str]
    #: username -> set of friend usernames (symmetric)
    friends: dict[str, set[str]]
    #: username -> list of photo descriptors
    photos: dict[str, list[dict]] = field(default_factory=dict)
    #: username -> list of blog-post descriptors
    posts: dict[str, list[dict]] = field(default_factory=dict)
    #: username -> profile fields
    profiles: dict[str, dict[str, str]] = field(default_factory=dict)

    def are_friends(self, a: str, b: str) -> bool:
        return b in self.friends.get(a, set())

    def friend_list(self, user: str) -> list[str]:
        return sorted(self.friends.get(user, set()))

    def total_items(self) -> int:
        return (sum(len(v) for v in self.photos.values())
                + sum(len(v) for v in self.posts.values()))


def username(i: int) -> str:
    """Deterministic readable usernames: u0_sunny_falcon, ..."""
    return (f"u{i}_{_ADJECTIVES[i % len(_ADJECTIVES)]}"
            f"_{_NOUNS[(i // len(_ADJECTIVES)) % len(_NOUNS)]}")


def make_social_world(n_users: int = 20, model: str = WATTS_STROGATZ,
                      mean_degree: int = 4, photos_per_user: int = 3,
                      posts_per_user: int = 2, seed: int = 7) -> SocialWorld:
    """Build a reproducible synthetic population.

    ``mean_degree`` is clamped to feasible values for small
    populations; all randomness flows from ``seed``.
    """
    rng = random.Random(seed)
    users = [username(i) for i in range(n_users)]
    graph = _make_graph(n_users, model, mean_degree, seed)
    friends = {users[i]: {users[j] for j in graph.neighbors(i)}
               for i in range(n_users)}

    world = SocialWorld(users=users, friends=friends)
    for u in users:
        world.photos[u] = [
            {"filename": f"{u}-photo-{k}.jpg",
             "caption": rng.choice(_ADJECTIVES) + " " + rng.choice(_NOUNS),
             "bytes": f"<jpeg:{u}:{k}>"}
            for k in range(photos_per_user)]
        world.posts[u] = [
            {"title": f"{u} post {k}",
             "body": f"thoughts of {u} number {k}: "
                     + rng.choice(_NOUNS)}
            for k in range(posts_per_user)]
        world.profiles[u] = {
            "music": rng.choice(_NOUNS),
            "food": rng.choice(_ADJECTIVES),
            "romance": rng.choice(["looking", "taken", "complicated"]),
        }
    return world


def _make_graph(n: int, model: str, mean_degree: int, seed: int) -> nx.Graph:
    import networkx as nx
    if n <= 1:
        g = nx.Graph()
        g.add_nodes_from(range(n))
        return g
    k = max(2, min(mean_degree, n - 1))
    if model == WATTS_STROGATZ:
        k = k if k % 2 == 0 else k - 1
        k = max(2, min(k, n - 1))
        return nx.watts_strogatz_graph(n, k, 0.2, seed=seed)
    if model == BARABASI_ALBERT:
        m = max(1, min(mean_degree // 2, n - 1))
        return nx.barabasi_albert_graph(n, m, seed=seed)
    if model == COMPLETE:
        return nx.complete_graph(n)
    raise ValueError(f"unknown social-graph model {model!r}")


def zipf_choices(items: list, n_draws: int, skew: float = 1.2,
                 seed: int = 11) -> list:
    """Draw ``n_draws`` items with Zipfian popularity (for request
    traces: a few hot profiles, a long tail)."""
    if not items:
        return []
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(items))]
    return rng.choices(items, weights=weights, k=n_draws)
