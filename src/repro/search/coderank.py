"""CodeRank: dependency-graph module ranking (§3.2).

"Where PageRank uses the structure of the Web's hyperlink graph to
infer a page's suitability, a W5 'code search' could use the structure
of the dependency graph among modules to infer a module's suitability."

Edges come in the paper's two flavors — *imports* (A imports B as a
library) and *embeds* (A's HTML output points at an application using
B) — optionally weighted differently.  The ranking is PageRank over
the reversed edges (a dependency *confers* authority on what it
imports), computed with the standard power iteration.

The crucial property (exercised in experiment C5): raw popularity
counts are sybil-vulnerable — a clique of spam modules with fabricated
usage looks hot — while CodeRank discounts endorsements from places
nothing reputable points at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

if TYPE_CHECKING:
    import networkx as nx

IMPORT = "import"
EMBED = "embed"


def _digraph() -> nx.DiGraph:
    """An empty graph.  networkx is imported here, where a graph is
    built, so a process that serves requests never loads it."""
    import networkx as nx
    return nx.DiGraph()


@dataclass
class DependencyGraph:
    """Typed dependency edges among registry modules."""

    graph: nx.DiGraph = field(default_factory=_digraph)

    def add_module(self, name: str) -> None:
        self.graph.add_node(name)

    def add_edge(self, importer: str, imported: str,
                 kind: str = IMPORT) -> None:
        """Add a dependency edge.

        A pair may be related both ways (imported *and* embedded); the
        graph keeps one edge with the stronger kind (IMPORT > EMBED).
        """
        if kind not in (IMPORT, EMBED):
            raise ValueError(f"unknown dependency kind {kind!r}")
        if self.graph.has_edge(importer, imported):
            if self.graph[importer][imported]["kind"] == IMPORT:
                return
        self.graph.add_edge(importer, imported, kind=kind)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[str, str]],
                   kind: str = IMPORT) -> "DependencyGraph":
        dg = cls()
        for a, b in edges:
            dg.add_edge(a, b, kind=kind)
        return dg

    @classmethod
    def from_registry(cls, registry, usage_edges: Iterable[tuple[str, str]]
                      = ()) -> "DependencyGraph":
        """Build from a platform registry: declared imports plus the
        dynamic usage edges the provider recorded."""
        dg = cls()
        for module in registry:
            dg.add_module(module.name)
        for a, b in registry.dependency_edges():
            dg.add_edge(a, b, kind=IMPORT)
        for a, b in usage_edges:
            dg.add_edge(a, b, kind=EMBED)
        return dg

    def modules(self) -> list[str]:
        return sorted(self.graph.nodes)


def coderank(deps: DependencyGraph, damping: float = 0.85,
             import_weight: float = 1.0, embed_weight: float = 0.5,
             personalization: Optional[Mapping[str, float]] = None,
             max_iter: int = 100, tol: float = 1e-10) -> dict[str, float]:
    """PageRank over the weighted dependency graph.

    Returns a score per module summing to 1.  ``import_weight`` /
    ``embed_weight`` set the endorsement strength of the two edge
    kinds and must lie in (0, 1]: an edge of weight *w* transfers a
    *w* fraction of what a full endorsement would, with the remainder
    recycled to the teleport pool — so the discount holds globally,
    not merely relative to a node's other out-edges.  (Ablated in
    experiment C5b.)

    ``personalization`` biases the teleport vector, the classic
    link-farm defense: pass platform-observed *user adoption counts*
    (which sybils cannot fabricate without real users) and a clique of
    spam modules endorsing each other receives essentially no rank to
    amplify.  ``None`` means uniform teleport — plain PageRank, which
    experiment C5 shows is itself spammable.
    """
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    for w in (import_weight, embed_weight):
        if not 0 < w <= 1:
            raise ValueError("edge weights must be in (0, 1]")
    g = deps.graph
    if g.number_of_nodes() == 0:
        return {}
    return _pagerank(g, damping, import_weight, embed_weight,
                     personalization, max_iter, tol)


def _pagerank(g: nx.DiGraph, damping: float, import_weight: float,
              embed_weight: float,
              personalization: Optional[Mapping[str, float]],
              max_iter: int, tol: float) -> dict[str, float]:
    """Weighted power iteration; endorsement flows importer→imported.

    Each out-edge of a node gets an equal 1/out_degree share of the
    node's endorsement budget, scaled by its kind weight; the unscaled
    remainder joins the teleport pool, preserving a total mass of 1.
    """
    nodes = list(g.nodes)
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    out_count = [0] * n
    edges: list[tuple[int, int, float]] = []
    for a, b, data in g.edges(data=True):
        w = import_weight if data.get("kind", IMPORT) == IMPORT \
            else embed_weight
        edges.append((index[a], index[b], w))
        out_count[index[a]] += 1
    # fraction of each node's budget that actually travels its edges
    passed = [0.0] * n
    for a, __, w in edges:
        passed[a] += w / out_count[a]
    # teleport vector: uniform, or normalized personalization weights
    if personalization is None:
        teleport = [1.0 / n] * n
    else:
        teleport = [max(0.0, float(personalization.get(node, 0.0)))
                    for node in nodes]
        total = sum(teleport)
        if total <= 0.0:
            teleport = [1.0 / n] * n
        else:
            teleport = [t / total for t in teleport]
    rank = list(teleport)
    for __ in range(max_iter):
        # residual = dangling nodes + per-edge weight discounts
        residual = sum(rank[i] * (1.0 - passed[i]) for i in range(n))
        nxt = [(1.0 - damping + damping * residual) * t for t in teleport]
        for a, b, w in edges:
            nxt[b] += damping * rank[a] * (w / out_count[a])
        delta = sum(abs(x - y) for x, y in zip(nxt, rank))
        rank = nxt
        if delta < tol:
            break
    return {node: rank[index[node]] for node in nodes}


def popularity_rank(usage_counts: Mapping[str, int]) -> dict[str, float]:
    """The naive baseline: normalize raw usage counts."""
    total = float(sum(usage_counts.values())) or 1.0
    return {m: c / total for m, c in usage_counts.items()}


def top_k(scores: Mapping[str, float], k: int,
          restrict_to: Optional[Iterable[str]] = None) -> list[str]:
    """The k best-scored modules (optionally within a candidate set),
    ties broken by name for determinism."""
    pool = set(restrict_to) if restrict_to is not None else set(scores)
    ranked = sorted((m for m in scores if m in pool),
                    key=lambda m: (-scores[m], m))
    return ranked[:k]


def precision_at_k(scores: Mapping[str, float], relevant: set[str],
                   k: int, restrict_to: Optional[Iterable[str]] = None
                   ) -> float:
    """Fraction of the top-k that are in the relevant set."""
    if k <= 0:
        return 0.0
    hits = sum(1 for m in top_k(scores, k, restrict_to) if m in relevant)
    return hits / k
