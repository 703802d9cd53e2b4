import math
import random
from collections import Counter
from dataclasses import replace
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecscope.depgraph import extract_dependencies
from kecscope.generator import GenConfig, generate_accelerator
from kecscope.grouping import compute_levels, group_by_levels
from kecscope.keccak import LANE_WIDTHS, round_dependency_sets
from kecscope.locate import (KeccakNotPresentError, PipelineConfig, RepqcResult,
                             SearchBounds, _hit_counts, clever_search,
                             derive_bounds, expected_state_count,
                             filter_state_candidates, locate_inputs_grouped,
                             locate_inputs_individual, naive_bounds,
                             remap_result, results_equivalent, run_pipeline)
from kecscope.netlist import anonymize
from kecscope.scoring import compute_zscores

from named import Named, graph


def random_graph(rng, n=50):
    ffs = [f"f{i}" for i in range(n)]
    return graph(ffs, [(f, g) for f in ffs
                       for g in rng.sample(ffs, rng.randint(0, n // 2))])


def test_bounds_validate():
    with pytest.raises(ValueError):
        SearchBounds(5, 4, 1, 2)
    b = SearchBounds(33, math.inf, 34, math.inf)
    assert b.admits(33, 34) and not b.admits(2, 34)


@pytest.mark.parametrize("seed", range(5))
def test_filter_matches_brute_force(seed):
    rng = random.Random(seed)
    g = random_graph(rng)
    lo1, lo2 = rng.randint(0, 10), rng.randint(0, 10)
    b = SearchBounds(lo1, lo1 + rng.randint(0, 15),
                     lo2, lo2 + rng.randint(0, 15))
    got = Named(g).names(filter_state_candidates(g, b))
    # independent scan straight off the adjacency maps
    deps = Named(g).deps
    want = set()
    for f in g.ffs:
        fi = sum(1 for other in g.ffs if f in deps[other])
        fo = len(deps[f])
        if b.fif <= fi <= b.fic and b.fof <= fo <= b.foc:
            want.add(f)
    assert got == want


def test_derive_bounds_w64():
    assert derive_bounds(64) == (33, 34)


def test_derive_bounds_consistent_with_expansion():
    # the differential gate of derive_bounds' table: every entry is
    # recomputed from the one-round expansion it was read off
    for w in LANE_WIDTHS:
        sources, sinks = round_dependency_sets(w)
        fif, fof = derive_bounds(w)
        assert fif == min(len(s) for s in sources.values())
        # one extra sink floor: the state must remain readable
        assert fof == min(len(s) for s in sinks.values()) + 1


def test_naive_bounds_w64():
    b = naive_bounds(64)
    assert (b.fif, b.fic, b.fof, b.foc) == (33, math.inf, 34, math.inf)


def test_naive_bounds_smaller_widths_from_brute_force():
    for w in (1, 8):
        fif, fof = derive_bounds(w)
        b = naive_bounds(w)
        assert (b.fif, b.fof) == (fif, fof)


def test_naive_bounds_rejects_bad_width():
    with pytest.raises(ValueError):
        naive_bounds(63)


def test_widening_never_shrinks(oracle_w8_graph):
    g = oracle_w8_graph
    tight = SearchBounds(28, 40, 30, 33)
    wide = SearchBounds(27, 41, 29, 35)
    assert filter_state_candidates(g, tight) <= filter_state_candidates(g, wide)


def test_clever_search_oracle_w8(oracle_w8, oracle_w8_graph):
    _, truth = oracle_w8
    bounds, ckff = clever_search(oracle_w8_graph, 8)
    assert set(truth.all_state_ffs()) <= Named(oracle_w8_graph).names(ckff)
    assert len(ckff) >= 200
    assert bounds.fif == naive_bounds(8).fif + 1
    assert bounds.foc >= bounds.fof


def test_clever_search_absent(chain3):
    g = extract_dependencies(chain3)
    with pytest.raises(KeccakNotPresentError):
        clever_search(g, 1)


def test_clever_search_expected_floor(oracle_w8_graph):
    with pytest.raises(ValueError):
        clever_search(oracle_w8_graph, 8, instances=0)


class Case(NamedTuple):
    """A localizer input by name: the flip-flops, (src, dst) dependency
    edges, group rows (gid, key, members), each flip-flop's z and the
    state candidates."""
    ffs: list
    edges: list
    rows: list
    z: dict
    ckff: set

    def build(self):
        """(graph, groups, scores, candidate ids): the localizers' input."""
        g = graph(self.ffs, self.edges)
        named = Named(g)
        return (g, named.groups(self.rows), named.scores(self.z),
                named.ids(self.ckff))


def _hit_floor(w):
    """The least number of candidates a member must hit to count."""
    return derive_bounds(w)[1] - 1


def _three_group_case(w=4):
    """Only group A is fully hit; B never hit; C hit but too small. The
    state has exactly as many candidates as the hit floor, so each member
    that feeds all of them just counts. Returns the case and A."""
    state = [f"s{i:02d}" for i in range(_hit_floor(w))]
    a = [f"a{i}" for i in range(w)]
    b = [f"b{i}" for i in range(w)]
    c = ["c0"]
    edges = [(m, s) for m in a for s in state]
    edges += [(c[0], s) for s in state]
    rows = [("ga", (1, 3), a), ("gb", (1, 4), b), ("gc", (2, 3), c)]
    z = {f: 0.1 for f in a}
    z.update({f: 0.05 for f in b})   # lower z but never hit
    z.update({c[0]: 5.0})
    z.update({f: 0.0 for f in state})
    return Case(state + a + b + c, edges, rows, z, set(state)), a


def _three_group_fixture(w=4):
    case, a = _three_group_case(w)
    return (*case.build(), a)


def test_grouped_returns_hit_group():
    graph, groups, scores, ckff, a = _three_group_fixture()
    res = locate_inputs_grouped(scores, groups, graph, ckff, 4)
    assert res.found()
    assert res.winning_group == "ga"
    assert sorted(res.input_candidates) == sorted(a)
    assert len(res.input_candidates) == 4


def test_grouped_prunes_unhit_members():
    case, a = _three_group_case()
    # add one never-hit member to the winning group: it must not be returned
    case.rows[0] = ("ga", (1, 3), a + ["a_dead"])
    case.z["a_dead"] = 0.0
    case.ffs.append("a_dead")
    graph, groups, scores, ckff = case.build()
    res = locate_inputs_grouped(scores, groups, graph, ckff, 4)
    assert "a_dead" not in res.input_candidates
    assert sorted(res.input_candidates) == sorted(a)


def test_grouped_empty_when_winner_too_small():
    case, a = _three_group_case()
    # split the winning group in half: neither half can supply w members
    half1, half2 = a[:2], a[2:]
    case.rows[0] = ("ga1", (1, 3), half1)
    case.rows.insert(1, ("ga2", (1, 5), half2))
    graph, groups, scores, ckff = case.build()
    res = locate_inputs_grouped(scores, groups, graph, ckff, 4)
    assert not res.found()
    assert res.input_candidates == []


def test_grouped_requires_candidates():
    graph, groups, scores, _, _ = _three_group_fixture()
    with pytest.raises(ValueError):
        locate_inputs_grouped(scores, groups, graph, set(), 4)


def test_members_below_the_hit_floor_do_not_count():
    case, a = _three_group_case()
    # a round-counter-like group: lower scores than a, but each member
    # hits one candidate fewer than the floor
    r = [f"r{i}" for i in range(4)]
    below = sorted(case.ckff)[:_hit_floor(4) - 1]
    for m in r:
        case.ffs.append(m)
        case.edges.extend((m, s) for s in below)
        case.z[m] = 0.0
    case.rows.insert(0, ("gr", (1, 2), r))
    graph, groups, scores, ckff = case.build()
    res = locate_inputs_grouped(scores, groups, graph, ckff, 4)
    assert res.winning_group == "ga"
    assert sorted(res.input_candidates) == sorted(a)
    res = locate_inputs_individual(scores, graph, ckff, 4)
    assert sorted(res.input_candidates) == sorted(a)


@pytest.mark.parametrize("blind", (False, True), ids=("named", "anonymized"))
@pytest.mark.parametrize("decoys", (0, 3000))
@pytest.mark.parametrize("w", (1, 2, 4, 8))
def test_input_register_located_at_small_widths(w, decoys, blind):
    # at w <= 4 the round counter has at least w bits, so it clears both
    # group filters; only the hit floor keeps its few hits from counting
    netlist, truth = generate_accelerator(GenConfig(w=w, decoy_ffs=decoys,
                                                    seed=1))
    if blind:
        netlist, rename = anonymize(netlist, 1)
        truth = truth.remap(rename)
    result, _ = run_pipeline(netlist, PipelineConfig(lane_width=w))
    assert set(result.input_candidates) == set(truth.all_input_ffs())


def test_individual_no_hits_is_empty():
    g, _, scores, ckff = Case(["s0", "s1", "x0"], [], [],
                              dict.fromkeys(["s0", "s1", "x0"], 0.0),
                              {"s0", "s1"}).build()
    res = locate_inputs_individual(scores, g, ckff, 4)
    assert not res.found()


def test_individual_lowest_z_hits():
    graph, groups, scores, ckff, a = _three_group_fixture()
    res = locate_inputs_individual(scores, graph, ckff, 4)
    # hit set is a + c0; the 4 lowest-z hit flip-flops are exactly a
    assert sorted(res.input_candidates) == sorted(a)


def test_variants_agree_on_oracle(oracle_w8, oracle_w8_graph):
    netlist, truth = oracle_w8
    g = oracle_w8_graph
    scores = compute_zscores(g)
    groups = group_by_levels(compute_levels(g))
    _, ckff = clever_search(g, 8)
    rg = locate_inputs_grouped(scores, groups, g, ckff, 8)
    ri = locate_inputs_individual(scores, g, ckff, 8)
    assert set(rg.input_candidates) == set(ri.input_candidates)
    assert sorted(rg.input_candidates) == sorted(truth.all_input_ffs())


def test_result_invariants(oracle_w8, oracle_w8_graph):
    _, truth = oracle_w8
    g = oracle_w8_graph
    res, _ = run_pipeline_cached(oracle_w8[0])
    assert len(res.input_candidates) == 8
    deps = Named(g).deps
    for m in res.input_candidates:
        assert deps[m] & res.state_candidates


_cache = {}


def run_pipeline_cached(netlist):
    key = id(netlist)
    if key not in _cache:
        _cache[key] = run_pipeline(netlist, PipelineConfig(lane_width=8))
    return _cache[key]


def test_pipeline_stages_and_timings(oracle_w8, oracle_w8_graph):
    res, times = run_pipeline_cached(oracle_w8[0])
    assert set(times) == {"dependencies", "scores", "groups",
                          "bounds_search", "localize"}
    assert all(ms >= 0 for ms in times.values())
    assert res.variant == "grouped"
    # the structures the result came from ride along, outside equality
    assert res.analysis.graph.ffs == oracle_w8_graph.ffs
    assert res.analysis.graph.rdeps == oracle_w8_graph.rdeps
    assert res.analysis.groups.regular()
    assert set(Named(res.analysis.graph).of(res.analysis.scores.z)) \
        == set(oracle_w8_graph.ffs)
    assert "analysis" not in repr(res)
    assert replace(res, analysis=None) == res


def test_pipeline_not_present(chain3):
    with pytest.raises(KeccakNotPresentError):
        run_pipeline(chain3, PipelineConfig(lane_width=8))


def test_pipeline_bounds_override(oracle_w8, oracle_w8_graph):
    nb = naive_bounds(8)
    res, _ = run_pipeline(oracle_w8[0],
                          PipelineConfig(lane_width=8, bounds_override=nb))
    assert res.bounds == nb
    assert set(oracle_w8[1].all_state_ffs()) <= res.state_candidates


def test_pipeline_invariant_under_anonymization(oracle_w8):
    netlist, _ = oracle_w8
    res, _ = run_pipeline_cached(netlist)
    blind, rename = anonymize(netlist, 21)
    res_b, _ = run_pipeline(blind, PipelineConfig(lane_width=8))
    remapped = remap_result(res, rename)
    assert results_equivalent(remapped, res_b)
    assert remapped.analysis is None


def test_only_the_pipeline_sets_the_expected_state_count():
    # two instances: 400 candidates at w = 8, where one instance has 200
    netlist, _ = generate_accelerator(GenConfig(w=8, instances=2, seed=1))
    config = PipelineConfig(lane_width=8, instances=2)
    res, _ = run_pipeline(netlist, config)
    assert res.expected_state_count == len(res.state_candidates) == 400
    graph, scores, groups = res.analysis
    ckff = Named(graph).ids(res.state_candidates)
    for direct in (locate_inputs_grouped(scores, groups, graph, ckff, 8),
                   locate_inputs_individual(scores, graph, ckff, 8)):
        assert direct.expected_state_count is None


# Reference definitions the search and the localizers are checked against,
# over names: the fanout ceiling widened one step at a time with a full
# rescan per step, and hit marking per (candidate, member) pair.

def _named_search(graph, w, instances=1, shares=1):
    """``clever_search``, its candidates named."""
    bounds, ckff = clever_search(graph, w, instances, shares)
    return bounds, Named(graph).names(ckff)


def _widening_search(graph, w, instances=1, shares=1):
    expected = expected_state_count(w, instances, shares)
    nb = naive_bounds(w)
    fif = nb.fif + 1
    foc = nb.fof
    named = Named(graph)
    max_fanout = max((named.fanout(f) for f in graph.ffs), default=0)
    while True:
        bounds = SearchBounds(fif, math.inf, nb.fof, foc)
        candidates = named.names(filter_state_candidates(graph, bounds))
        if len(candidates) >= expected:
            return bounds, candidates
        if foc >= max_fanout:
            raise KeccakNotPresentError(
                f"Keccak not present: {len(candidates)}/{expected} candidates "
                f"at exhausted fanout ceiling {foc}")
        foc += 1


def _rdeps(case):
    """sink name -> source names"""
    rdeps = {f: set() for f in case.ffs}
    for src, dst in case.edges:
        rdeps[dst].add(src)
    return rdeps


def _mark_hits(case):
    """gid -> member -> number of (candidate, member) hit pairs"""
    rdeps = _rdeps(case)
    marks = {gid: dict.fromkeys(members, 0) for gid, _, members in case.rows}
    member_group = {m: gid for gid, _, members in case.rows for m in members}
    for f in case.ckff:
        for m in rdeps[f]:
            if m in case.ckff or m not in member_group:
                continue
            marks[member_group[m]][m] += 1
    return marks


def _reference_hit_counts(case, w):
    """member -> (candidate, member) hit pairs, for the members at or
    above the hit floor"""
    if not case.ckff:
        raise ValueError("empty state candidate set")
    rdeps = _rdeps(case)
    pairs = {}
    for f in case.ckff:
        for m in rdeps[f]:
            if m not in case.ckff:
                pairs[m] = pairs.get(m, 0) + 1
    return {m: n for m, n in pairs.items() if n >= _hit_floor(w)}


def _reference_grouped(case, w):
    if not case.ckff:
        raise ValueError("empty state candidate set")
    marks = _mark_hits(case)
    survivors = []
    for gid, key, members in case.rows:
        if key is None:
            continue
        hit = {m: n for m, n in marks[gid].items() if n >= _hit_floor(w)}
        if sum(hit.values()) >= w:
            survivors.append(((gid, key), [m for m in sorted(members)
                                           if m in hit]))
    empty = RepqcResult(frozenset(case.ckff), [], None, "grouped")
    if not survivors:
        return empty

    def score(gm):
        return sum(case.z[m] for m in gm[1]) / len(gm[1])

    survivors.sort(key=lambda gm: (score(gm), gm[0][1]))
    (gid, _), members = survivors[0]
    if len(members) < w:
        return empty
    members = sorted(members, key=lambda m: (case.z[m], m))[:w]
    return RepqcResult(frozenset(case.ckff), members, gid, "grouped")


def _reference_individual(case, w):
    hit = _reference_hit_counts(case, w)
    if len(hit) < w:
        return RepqcResult(frozenset(case.ckff), [], None, "individual")
    members = sorted(hit, key=lambda m: (case.z[m], m))[:w]
    return RepqcResult(frozenset(case.ckff), members, None, "individual")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (KeccakNotPresentError, ValueError) as e:
        return type(e), str(e)


def _dense_edges(rng, ffs):
    """Edges whose degrees straddle the w = 1 floors (26, 26): each
    flip-flop draws its own edge density, so some clear both floors."""
    edges = []
    for f in ffs:
        p = rng.choice((0.1, 0.5, 0.8, 0.95))
        edges += [(f, g) for g in ffs if rng.random() < p]
    return edges


def _dense_graph(rng, n):
    ffs = [f"f{i:02d}" for i in range(n)]
    return graph(ffs, _dense_edges(rng, ffs))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 70),
       instances=st.integers(1, 2))
def test_clever_search_matches_widening(seed, n, instances):
    graph = _dense_graph(random.Random(seed), n)
    assert (_outcome(_named_search, graph, 1, instances)
            == _outcome(_widening_search, graph, 1, instances))


def _localizer_case(rng, n):
    """A dense graph (as for the floors) with up to two thirds of its
    flip-flops as candidates, so member hit counts straddle the hit
    floors of small widths; few distinct scores, so ties in both rankings
    are common; and random groups over all flip-flops."""
    ffs = [f"f{i:02d}" for i in range(n)]
    edges = _dense_edges(rng, ffs)
    ckff = set(rng.sample(ffs, rng.randint(0, 2 * n // 3)))
    z = {f: rng.choice((0.0, 0.25, 0.5, 1.5)) for f in ffs}
    buckets = {}
    for f in ffs:
        buckets.setdefault(rng.randint(0, 5), []).append(f)
    rows = [(f"g{k}", (k % 3, k // 3) if k else None, sorted(m))
            for k, m in sorted(buckets.items(), reverse=True)]
    return Case(ffs, edges, rows, z, ckff)


SMALL_WIDTHS = (1, 2, 4, 8)


def _named_hit_counts(graph, ckff, w):
    """``_hit_counts``, its members named."""
    return {graph.ffs[m]: n for m, n in _hit_counts(graph, ckff, w).items()}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 80),
       w=st.sampled_from(SMALL_WIDTHS))
def test_localizers_match_hit_marking(seed, n, w):
    case = _localizer_case(random.Random(seed), n)
    graph, table, scores, ckff = case.build()
    assert (_outcome(_named_hit_counts, graph, ckff, w)
            == _outcome(_reference_hit_counts, case, w))
    assert (_outcome(locate_inputs_grouped, scores, table, graph, ckff, w)
            == _outcome(_reference_grouped, case, w))
    assert (_outcome(locate_inputs_individual, scores, graph, ckff, w)
            == _outcome(_reference_individual, case, w))


def test_localizer_cases_straddle_the_hit_floor():
    # the draws of test_localizers_match_hit_marking are not vacuous:
    # members fall on both sides of the floor and both localizers find
    # registers in some draws and not in others
    below = above = 0
    found = {"grouped": set(), "individual": set()}
    for seed in range(60):
        rng = random.Random(seed)
        n, w = rng.randint(2, 80), rng.choice(SMALL_WIDTHS)
        case = _localizer_case(rng, n)
        if not case.ckff:
            continue
        rdeps = _rdeps(case)
        pairs = Counter(m for f in case.ckff for m in rdeps[f]
                        if m not in case.ckff)
        below += sum(0 < k < _hit_floor(w) for k in pairs.values())
        above += sum(k >= _hit_floor(w) for k in pairs.values())
        graph, table, scores, ckff = case.build()
        found["grouped"].add(locate_inputs_grouped(
            scores, table, graph, ckff, w).found())
        found["individual"].add(locate_inputs_individual(
            scores, graph, ckff, w).found())
    assert below and above
    assert found == {"grouped": {False, True}, "individual": {False, True}}


class _CountingList(list):
    """A list that counts the items read from it."""
    reads = 0

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def _counting(graph):
    """The graph, its fanout lists read through a _CountingList."""
    return replace(graph, deps=_CountingList(graph.deps))


def _high_ceiling_graph(n_state):
    """n_state flip-flops that all depend on each other (fanin n_state),
    state i also feeding 100 + i private sinks, so the fanout ceiling for
    25 candidates sits about 130 above the w = 1 fanout floor of 26."""
    state = [f"s{i:02d}" for i in range(n_state)]
    edges = [(a, b) for a in state for b in state]
    ffs = list(state)
    for i, s in enumerate(state):
        sinks = [f"{s}_k{j:03d}" for j in range(100 + i)]
        ffs += sinks
        edges += [(s, k) for k in sinks]
    return graph(ffs, edges)


@pytest.mark.parametrize("n_state, found", [(30, True), (20, False)])
def test_clever_search_reads_each_fanout_a_bounded_number_of_times(
        n_state, found):
    graph = _counting(_high_ceiling_graph(n_state))
    want = _outcome(_widening_search, _high_ceiling_graph(n_state), 1)
    assert _outcome(_named_search, graph, 1) == want
    assert (want[0] is KeccakNotPresentError) != found
    assert graph.deps.reads <= 3 * len(graph.ffs)
