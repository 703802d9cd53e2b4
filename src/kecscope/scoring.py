"""Per-flip-flop uniqueness scores from the sequential fanout feature.

A flip-flop whose fanout value is shared by many others looks like one bit
of a wide datapath word and scores near zero; a flip-flop with a rare
fanout value looks like control logic and scores high. The score is the
clipped population standard score of feature-count rarity:

    c(f)  = number of flip-flops sharing f's fanout value
    z(f)  = max(0, (mean(c) - c(f)) / pstdev(c)),   all zero when pstdev = 0

so z is in [0, inf) and flip-flops with identical fanout get identical z.
The table is a list indexed by flip-flop id, and the sums run in id
order; only ``dump_scores`` reads names.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass

from .depgraph import DependencyGraph


@dataclass
class ScoreTable:
    z: list[float]                   # flip-flop id -> z


def compute_zscores(graph: DependencyGraph) -> ScoreTable:
    if not graph.ffs:
        raise ValueError("empty dependency graph")
    feature = list(map(len, graph.deps))
    counts = Counter(feature)
    c = [counts[v] for v in feature]
    mu = statistics.fmean(c)
    sigma = statistics.pstdev(c)
    if sigma == 0.0:
        return ScoreTable([0.0] * len(c))
    return ScoreTable([max(0.0, (mu - n) / sigma) for n in c])


def dump_scores(table: ScoreTable, graph: DependencyGraph) -> str:
    """CSV ``ff,z`` ordered by flip-flop name."""
    ffs, z = graph.ffs, table.z
    lines = ["ff,z"]
    lines += [f"{ffs[i]},{z[i]:.6f}" for i in graph.by_name]
    return "\n".join(lines) + "\n"
