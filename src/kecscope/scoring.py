"""Per-flip-flop uniqueness scores from the sequential fanout feature.

A flip-flop whose fanout value is shared by many others looks like one bit
of a wide datapath word and scores near zero; a flip-flop with a rare
fanout value looks like control logic and scores high. The score is the
clipped population standard score of feature-count rarity:

    c(f)  = number of flip-flops sharing f's fanout value
    z(f)  = max(0, (mean(c) - c(f)) / pstdev(c)),   all zero when pstdev = 0

so z is in [0, inf) and flip-flops with identical fanout get identical z.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass

from .depgraph import DependencyGraph


@dataclass
class ScoreTable:
    z: dict[str, float]


def compute_zscores(graph: DependencyGraph) -> ScoreTable:
    if not graph.ffs:
        raise ValueError("empty dependency graph")
    feature = {f: graph.fanout(f) for f in graph.ffs}
    counts = Counter(feature.values())
    c = {f: counts[v] for f, v in feature.items()}
    mu = statistics.fmean(c.values())
    sigma = statistics.pstdev(c.values())
    if sigma == 0.0:
        return ScoreTable({f: 0.0 for f in graph.ffs})
    return ScoreTable({f: max(0.0, (mu - c[f]) / sigma) for f in graph.ffs})


def dump_scores(table: ScoreTable) -> str:
    """CSV ``ff,z`` ordered by flip-flop id."""
    lines = ["ff,z"]
    for f in sorted(table.z):
        lines.append(f"{f},{table.z[f]:.6f}")
    return "\n".join(lines) + "\n"
