"""Per-flip-flop uniqueness scores from the sequential fanout feature.

A flip-flop whose fanout value is shared by many others looks like one bit
of a wide datapath word and scores near zero; a flip-flop with a rare
fanout value looks like control logic and scores high. The score is the
clipped population standard score of feature-count rarity:

    c(f)  = number of flip-flops sharing f's fanout value
    z(f)  = max(0, (mean(c) - c(f)) / pstdev(c)),   all zero when pstdev = 0

so z is in [0, inf) and flip-flops with identical fanout get identical z.
The scores are a list indexed by flip-flop id, and the sums run in id
order; only ``dump_scores`` reads names. z is computed once per distinct
count, every flip-flop with that count shares the one float, and
``dump_scores`` formats each distinct z once.
"""

from __future__ import annotations

import statistics
from collections import Counter

from .depgraph import DependencyGraph


def compute_zscores(graph: DependencyGraph) -> list[float]:
    """Flip-flop id -> z."""
    if not graph.ffs:
        raise ValueError("empty dependency graph")
    feature = list(map(len, graph.deps))
    counts = Counter(feature)
    c = [counts[v] for v in feature]
    mu = statistics.fmean(c)
    sigma = statistics.pstdev(c)
    if sigma == 0.0:
        return [0.0] * len(c)
    z = {n: max(0.0, (mu - n) / sigma) for n in counts.values()}
    return list(map(z.__getitem__, c))


def dump_scores(z: list[float], graph: DependencyGraph) -> str:
    """CSV ``ff,z`` ordered by flip-flop name, each z to six places."""
    ffs = graph.ffs
    text = {v: f"{v:.6f}" for v in set(z)}
    lines = ["ff,z"]
    lines += [f"{ffs[i]},{text[z[i]]}" for i in graph.by_name]
    return "\n".join(lines) + "\n"
