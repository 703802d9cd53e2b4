"""Locate the Keccak state and its input register in a blind netlist.

State bits of an iterative Keccak core are unusually well connected: one
round makes every next-state bit a function of 33 state bits, and any
operable accelerator must additionally read each state bit out, so a state
flip-flop has sequential fanin >= 33 and fanout >= 34. Filtering on those
windows yields the state candidate set. The fanout ceiling is an order
statistic: the smallest one whose window holds the expected state size,
read off the sorted fanouts of the flip-flops that clear both floors. The
input register is then the lowest-scoring register group that the
candidates depend on, ranked from one count of candidate hits per
flip-flop. Only one that hits at least fof - 1 candidates counts, as an
input bit does through the state bit it is absorbed into; a round-counter
bit, which reaches the state through iota alone, hits a few.

Pipeline order: dependencies -> scores -> levels/groups -> bounds search ->
grouped localization, falling back to per-flip-flop localization when
grouping was too fine to produce a full-width register. Every stage works
on flip-flop ids (``depgraph``); a localizer names its result.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .depgraph import DependencyGraph, extract_dependencies
from .grouping import GroupTable, compute_levels, group_by_levels
from .netlist import Netlist
from .scoring import compute_zscores
# the record of a localization lives in truth, which inject reads without
# this module; both names stay importable from here
from .truth import KeccakNotPresentError, RepqcResult


@dataclass(frozen=True)
class SearchBounds:
    fif: float
    fic: float
    fof: float
    foc: float

    def __post_init__(self):
        if self.fif > self.fic or self.fof > self.foc:
            raise ValueError(f"floor above ceiling: {self}")

    def admits(self, fanin, fanout):
        return (self.fif <= fanin <= self.fic) and (self.fof <= fanout <= self.foc)


class Analysis(NamedTuple):
    """The structures one ``run_pipeline`` call derived its result from."""
    graph: DependencyGraph
    scores: list[float]              # flip-flop id -> z
    groups: GroupTable


def filter_state_candidates(graph: DependencyGraph, bounds: SearchBounds) -> set[int]:
    """Exactly the ids of the flip-flops whose degrees fall inside both
    windows."""
    admits = bounds.admits
    return {f for f, (srcs, sinks) in enumerate(zip(graph.rdeps, graph.deps))
            if admits(len(srcs), len(sinks))}


# lane width -> (fanin floor, fanout floor), see derive_bounds
_FLOORS = {1: (25, 26), 2: (26, 27), 4: (26, 30), 8: (27, 30),
           16: (32, 32), 32: (33, 34), 64: (33, 34)}


def derive_bounds(w: int) -> tuple[int, int]:
    """(fanin floor, fanout floor) for lane width w, from a constant table
    over ``LANE_WIDTHS``; any other width raises ValueError.

    The fanin floor is the smallest per-bit source-set size of one round.
    The fanout floor adds one to the smallest per-bit sink-set size:
    keeping the hash usable forces every state bit to also feed a readout
    path, so at least one sequential sink beyond the permutation always
    exists. Both depend on w alone. The table was read off the brute-force
    expansion of one round over all 25*w bits (``round_dependency_sets``),
    and the tests recompute every entry from it. For w = 64 this gives
    (33, 34).
    """
    if w not in _FLOORS:
        raise ValueError(f"unsupported lane width {w}")
    return _FLOORS[w]


def naive_bounds(w: int) -> SearchBounds:
    """Unbounded-ceiling windows from the structural floors."""
    fif, fof = derive_bounds(w)
    return SearchBounds(fif, math.inf, fof, math.inf)


def clever_search(graph: DependencyGraph, w: int, instances: int = 1,
                  shares: int = 1) -> tuple[SearchBounds, set[int]]:
    """The tightest fanout ceiling whose window holds the expected state
    size 25*w*instances*shares, and the ids of the candidates in that
    window.

    The fanin floor sits one above the naive floor and the fanout floor at
    the naive floor. The ceiling is the expected-th smallest fanout among
    the flip-flops that clear both floors, so one sort of those fanouts
    finds it: no smaller ceiling admits enough flip-flops. Raises
    KeccakNotPresentError when fewer flip-flops than expected clear the
    floors, naming the widest ceiling any flip-flop could need.
    """
    expected = expected_state_count(w, instances, shares)
    if expected < 25:
        raise ValueError("expected candidate count below one minimal state")
    nb = naive_bounds(w)
    fif = nb.fif + 1
    fanout = list(map(len, graph.deps))
    floored = [f for f, (fo, srcs) in enumerate(zip(fanout, graph.rdeps))
               if fo >= nb.fof and len(srcs) >= fif]
    if len(floored) < expected:
        raise KeccakNotPresentError(
            f"Keccak not present: {len(floored)}/{expected} candidates at "
            f"exhausted fanout ceiling {max([nb.fof, *fanout])}")
    foc = sorted([fanout[f] for f in floored])[expected - 1]
    return (SearchBounds(fif, math.inf, nb.fof, foc),
            {f for f in floored if fanout[f] <= foc})


def expected_state_count(w, instances=1, shares=1):
    return 25 * w * instances * shares


def _hit_counts(graph: DependencyGraph, ckff: set[int], w: int) -> Counter:
    """For each flip-flop id that at least fof - 1 state candidates (the
    hit floor) sequentially depend on, the number that do. Candidates are
    left out: the feedback of the state onto itself says nothing about
    where its input comes from."""
    if not ckff:
        raise ValueError("empty state candidate set")
    floor = derive_bounds(w)[1] - 1
    rdeps = graph.rdeps
    hits = Counter(m for f in ckff for m in rdeps[f] if m not in ckff)
    return Counter({m: n for m, n in hits.items() if n >= floor})


def _result(graph, ckff, members, gid, variant):
    """The result named: candidate ids become names here, and the located
    ids ranked by (z, name) before they do."""
    ffs = graph.ffs
    return RepqcResult(frozenset([ffs[f] for f in ckff]),
                       [ffs[m] for m in members], gid, variant)


def locate_inputs_grouped(z: list[float], groups: GroupTable,
                          graph: DependencyGraph, ckff: set[int],
                          w: int) -> RepqcResult:
    """Grouped localization: keep the register groups whose members take
    at least w candidate hits in total, prune members below the hit floor
    (``_hit_counts``), rank the survivors by ascending mean score of their
    hit members (ties by level key) and return the w lowest-scoring
    members of the best group (ties by name).

    Returns an empty result when no group survives or when the best group
    cannot supply w members (the imprecise-grouping failure mode).
    """
    hits = _hit_counts(graph, ckff, w)
    survivors = []
    for g in groups.regular():
        members = [m for m in g.members if m in hits]
        if sum(hits[m] for m in members) >= w:
            score = sum(z[m] for m in members) / len(members)
            survivors.append(((score, g.key), g, members))
    if survivors:
        _, best, members = min(survivors, key=lambda s: s[0])
        if len(members) >= w:
            ffs = graph.ffs
            members = sorted(members, key=lambda m: (z[m], ffs[m]))[:w]
            return _result(graph, ckff, members, best.gid, "grouped")
    return _result(graph, ckff, [], None, "grouped")


def locate_inputs_individual(z: list[float], graph: DependencyGraph,
                             ckff: set[int], w: int) -> RepqcResult:
    """Groupless fallback: every flip-flop is its own group of one, the
    group-size filter disappears, and the answer is simply the w
    lowest-scoring flip-flops that reach the hit floor (ties broken by
    name)."""
    hits = _hit_counts(graph, ckff, w)
    if len(hits) < w:
        return _result(graph, ckff, [], None, "individual")
    ffs = graph.ffs
    members = sorted(hits, key=lambda m: (z[m], ffs[m]))[:w]
    return _result(graph, ckff, members, None, "individual")


@dataclass
class PipelineConfig:
    lane_width: int = 64
    instances: int = 1
    shares: int = 1
    bounds_override: SearchBounds | None = None


def run_pipeline(netlist: Netlist, config: PipelineConfig | None = None
                 ) -> tuple[RepqcResult, dict[str, float]]:
    """Full attack analysis on one netlist; returns the localization result
    and per-stage wall-clock milliseconds. The result's ``analysis`` holds
    the dependency graph, scores and groups it was derived from."""
    config = config or PipelineConfig()
    timings: dict[str, float] = {}

    def staged(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[name] = (time.perf_counter() - t0) * 1e3
        return out

    graph = staged("dependencies", lambda: extract_dependencies(netlist))
    if not graph.ffs:
        raise KeccakNotPresentError("Keccak not present: no flip-flops")
    scores = staged("scores", lambda: compute_zscores(graph))
    groups = staged("groups", lambda: group_by_levels(compute_levels(graph)))

    def search():
        if config.bounds_override is not None:
            bounds = config.bounds_override
            ckff = filter_state_candidates(graph, bounds)
            if not ckff:
                raise KeccakNotPresentError(
                    f"Keccak not present: no flip-flop inside {bounds}")
            return bounds, ckff
        return clever_search(graph, config.lane_width,
                             config.instances, config.shares)

    bounds, ckff = staged("bounds_search", search)

    def localize():
        result = locate_inputs_grouped(scores, groups, graph, ckff,
                                       config.lane_width)
        if not result.found():
            result = locate_inputs_individual(scores, graph, ckff,
                                              config.lane_width)
        return result

    result = staged("localize", localize)
    result.bounds = bounds
    result.analysis = Analysis(graph, scores, groups)
    result.expected_state_count = expected_state_count(
        config.lane_width, config.instances, config.shares)
    return result, timings


def remap_result(result: RepqcResult, rename: dict[str, str]) -> RepqcResult:
    """Push a result through an anonymization rename map."""
    return RepqcResult(
        state_candidates=frozenset(rename[f] for f in result.state_candidates),
        input_candidates=[rename[f] for f in result.input_candidates],
        winning_group=result.winning_group,
        variant=result.variant,
        expected_state_count=result.expected_state_count,
        bounds=result.bounds,
    )


def results_equivalent(a: RepqcResult, b: RepqcResult) -> bool:
    """Equality up to register bit order, which id renaming cannot preserve."""
    return (a.state_candidates == b.state_candidates
            and set(a.input_candidates) == set(b.input_candidates)
            and a.variant == b.variant
            and a.bounds == b.bounds
            and a.winning_group == b.winning_group)
