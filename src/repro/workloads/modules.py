"""Synthetic module ecosystems for the §3.2 code-search experiments.

Experiment C5 needs a registry-shaped world with known ground truth: a
planted core of genuinely high-quality modules that many independent
applications depend on, plus a long tail of filler and a set of
spammy modules that try to look popular by linking to each other.
CodeRank should surface the planted core; popularity-only ranking is
fooled by the spam clique.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class ModuleEcosystem:
    """Ground-truthed synthetic dependency world."""

    graph: nx.DiGraph
    planted_core: set[str]
    spam_clique: set[str]
    #: Raw usage counts (the popularity baseline's only signal) —
    #: self-reported, so the spam clique inflates its own freely.
    usage_counts: dict[str, int] = field(default_factory=dict)
    #: Real user-adoption counts per *app* (platform-observed; sybils
    #: have none).  Feeds CodeRank's personalization vector.
    adoption_counts: dict[str, int] = field(default_factory=dict)

    @property
    def modules(self) -> list[str]:
        return sorted(self.graph.nodes)

    def edges(self) -> list[tuple[str, str]]:
        return list(self.graph.edges)


def make_module_ecosystem(n_apps: int = 60, n_core: int = 6,
                          n_filler: int = 40, n_spam: int = 8,
                          seed: int = 13) -> ModuleEcosystem:
    """Build the synthetic ecosystem.

    * ``core-i`` modules: every app independently imports 1–3 of them
      (high in-degree from *diverse*, themselves-used places).
    * ``filler-i`` modules: each used by at most a couple of apps.
    * ``spam-i`` modules: a dense clique linking to each other, plus a
      burst of fake "usage" edges from throwaway apps nobody links to —
      high raw counts, no reputable provenance.
    """
    import networkx as nx
    rng = random.Random(seed)
    g = nx.DiGraph()
    core = [f"core-{i}" for i in range(n_core)]
    filler = [f"filler-{i}" for i in range(n_filler)]
    spam = [f"spam-{i}" for i in range(n_spam)]
    apps = [f"app-{i}" for i in range(n_apps)]
    g.add_nodes_from(core + filler + spam + apps)

    usage: dict[str, int] = {m: 0 for m in core + filler + spam}
    adoption: dict[str, int] = {}

    for app in apps:
        adoption[app] = rng.randint(3, 60)  # real users, platform-observed
        for dep in rng.sample(core, rng.randint(1, min(3, n_core))):
            g.add_edge(app, dep)
            usage[dep] += rng.randint(5, 25)
        if filler and rng.random() < 0.8:
            dep = rng.choice(filler)
            g.add_edge(app, dep)
            usage[dep] += rng.randint(1, 4)
        # apps also link each other (the HTML-embed edge type)
        if rng.random() < 0.3:
            g.add_edge(app, rng.choice(apps))

    # The spam clique: dense internal links, fabricated usage counts,
    # and sock-puppet apps that "use" the spam — but no real adopters.
    for s in spam:
        for other in spam:
            if s != other:
                g.add_edge(s, other)
        usage[s] += rng.randint(2000, 5000)  # self-reported, inflated
        for k in range(3):
            sock = f"sock-{s}-{k}"
            g.add_node(sock)
            g.add_edge(sock, s)
            adoption[sock] = 0

    return ModuleEcosystem(graph=g, planted_core=set(core),
                           spam_clique=set(spam), usage_counts=usage,
                           adoption_counts=adoption)
