"""The ``metrics`` and ``fleet`` subcommands: fleet-wide views (M16).

A :class:`~repro.obs.FleetRegistry` snapshot (or the combined
``{"metrics": ..., "health": ...}`` dump an operator saves from a
deployment) renders into tables and states::

    python -m repro.analysis metrics fleet.json
    python -m repro.analysis metrics fleet.json --prometheus
    python -m repro.analysis fleet fleet.json

``metrics`` prints the merged audit counters and per-span latency
percentiles (the members' tracer histograms); ``--prometheus`` re-renders the same snapshot as the text
exposition (:func:`repro.obs.prometheus_text`).  ``fleet`` adds the
health rollup: every provider/shard/link with its ok/degraded/down
state and the reasons behind anything non-ok.

Dependency-light on purpose (stdlib json + repro.obs), mirroring
:mod:`repro.analysis.report`.  See ``docs/OBSERVABILITY.md`` part II
for the worked example that produces the input files.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from ..obs import LatencyHistogram, prometheus_text


def _load(path: str) -> dict[str, Any]:
    with open(path) as f:
        return json.load(f)


def _metrics_of(doc: dict[str, Any]) -> dict[str, Any]:
    """Accept a bare registry snapshot or a fleet dump wrapping one."""
    return doc.get("metrics", doc)


def counters_table(counters: dict[str, int]) -> str:
    lines = ["| category | verdict | count |", "|---|---|---|"]
    for key, n in sorted(counters.items()):
        category, verdict = key.rsplit(".", 1)
        lines.append(f"| `{category}` | {verdict} | {n} |")
    return "\n".join(lines)


def latency_table(latency: dict[str, dict[str, Any]]) -> str:
    lines = ["| span | count | mean | p50 | p95 | p99 | max |",
             "|---|---|---|---|---|---|---|"]
    rows = sorted(latency.items(),
                  key=lambda kv: -kv[1].get("total_s", 0.0))
    for span, snap in rows:
        h = LatencyHistogram.from_snapshot(snap)
        if not h.count:
            continue
        lines.append(
            f"| `{span}` | {h.count} "
            f"| {h.total / h.count * 1e6:.1f}µs "
            f"| {h.percentile(0.5) * 1e6:.1f}µs "
            f"| {h.percentile(0.95) * 1e6:.1f}µs "
            f"| {h.percentile(0.99) * 1e6:.1f}µs "
            f"| {h.max * 1e6:.1f}µs |")
    return "\n".join(lines)


def render_metrics(doc: dict[str, Any]) -> str:
    snapshot = _metrics_of(doc)
    out = ["# Fleet metrics", ""]
    members = snapshot.get("members", [])
    out.append(f"- members: {len(members)}"
               + (f" ({', '.join(members)})" if members else ""))
    counters = snapshot.get("counters", {})
    if counters:
        out += ["", "## Merged audit counters", "",
                counters_table(counters)]
    latency = snapshot.get("latency", {})
    if latency:
        out += ["", "## Merged span latency", "", latency_table(latency)]
    if not counters and not latency:
        out += ["", "(no samples recorded)"]
    return "\n".join(out)


def render_health(health: dict[str, Any], indent: str = "") -> list[str]:
    lines = [f"{indent}- state: **{health.get('state', '?')}**"]
    for reason in health.get("reasons", []):
        lines.append(f"{indent}  - {reason}")
    for section in ("providers", "links", "sources", "shards"):
        entries = health.get(section)
        if isinstance(entries, dict):
            for name, sub in sorted(entries.items()):
                lines.append(f"{indent}- `{name}`: {sub.get('state', '?')}")
                for reason in sub.get("reasons", []):
                    lines.append(f"{indent}  - {reason}")
        elif isinstance(entries, list):
            for i, sub in enumerate(entries):
                lines.append(f"{indent}- `{section[:-1]}:{i}`: "
                             f"{sub.get('state', '?')}")
                for reason in sub.get("reasons", []):
                    lines.append(f"{indent}  - {reason}")
    return lines


def render_fleet(doc: dict[str, Any]) -> str:
    out = [render_metrics(doc)]
    health = doc.get("health")
    if health:
        out += ["", "## Health", ""] + render_health(health)
    return "\n".join(out)


def run_metrics(argv: list[str]) -> int:
    prometheus = "--prometheus" in argv
    paths = [a for a in argv if not a.startswith("-")]
    if len(paths) != 1:
        print("usage: python -m repro.analysis metrics "
              "<fleet.json> [--prometheus]", file=sys.stderr)
        return 2
    doc = _load(paths[0])
    if prometheus:
        sys.stdout.write(prometheus_text(_metrics_of(doc)))
    else:
        print(render_metrics(doc))
    return 0


def run_fleet(argv: list[str]) -> int:
    paths = [a for a in argv if not a.startswith("-")]
    if len(paths) != 1:
        print("usage: python -m repro.analysis fleet <fleet.json>",
              file=sys.stderr)
        return 2
    print(render_fleet(_load(paths[0])))
    return 0
