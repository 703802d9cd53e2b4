import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecscope.depgraph import DependencyGraph, extract_dependencies
from kecscope.grouping import Group, GroupTable, compute_levels, group_by_levels
from kecscope.keccak import round_dependency_sets
from kecscope.locate import (KeccakNotPresentError, PipelineConfig, RepqcResult,
                             SearchBounds, clever_search, derive_bounds,
                             expected_state_count, filter_state_candidates,
                             locate_inputs_grouped, locate_inputs_individual,
                             naive_bounds, remap_result, results_equivalent,
                             run_pipeline)
from kecscope.netlist import anonymize
from kecscope.scoring import ScoreTable, compute_zscores


def random_graph(rng, n=50):
    ffs = [f"f{i}" for i in range(n)]
    deps = {f: set() for f in ffs}
    rdeps = {f: set() for f in ffs}
    for f in ffs:
        for g in rng.sample(ffs, rng.randint(0, n // 2)):
            deps[f].add(g)
            rdeps[g].add(f)
    return DependencyGraph(ffs, deps, rdeps,
                           {f: frozenset() for f in ffs},
                           {f: False for f in ffs})


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
    got = filter_state_candidates(g, b)
    # independent scan straight off the adjacency maps
    want = set()
    for f in g.ffs:
        fi = sum(1 for other in g.ffs if f in g.deps[other])
        fo = len(g.deps[f])
        if b.fif <= fi <= b.fic and b.fof <= fo <= b.foc:
            want.add(f)
    assert got == want


def test_derive_bounds_w64():
    assert derive_bounds(64) == (33, 34)


def test_derive_bounds_consistent_with_expansion():
    for w in (1, 2, 8, 64):
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
    assert set(truth.all_state_ffs()) <= ckff
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


def _stub_scores(zmap):
    return ScoreTable(dict(zmap))


def _stub_graph(edges, ffs):
    deps = {f: set() for f in ffs}
    rdeps = {f: set() for f in ffs}
    for src, dst in edges:
        deps[src].add(dst)
        rdeps[dst].add(src)
    return DependencyGraph(list(ffs), deps, rdeps,
                           {f: frozenset() for f in ffs},
                           {f: False for f in ffs})


def _three_group_fixture(w=4):
    """Only group A is fully hit; B never hit; C hit but too small."""
    state = [f"s{i}" for i in range(8)]
    a = [f"a{i}" for i in range(w)]
    b = [f"b{i}" for i in range(w)]
    c = ["c0"]
    edges = [(m, s) for m in a for s in state]
    edges += [(c[0], s) for s in state]
    ffs = state + a + b + c
    graph = _stub_graph(edges, ffs)
    groups = GroupTable([
        Group("ga", (1, 3), sorted(a)),
        Group("gb", (1, 4), sorted(b)),
        Group("gc", (2, 3), c),
    ])
    z = {f: 0.1 for f in a}
    z.update({f: 0.05 for f in b})   # lower z but never hit
    z.update({c[0]: 5.0})
    z.update({f: 0.0 for f in state})
    return graph, groups, _stub_scores(z), set(state), a


def test_grouped_returns_hit_group():
    graph, groups, scores, ckff, a = _three_group_fixture()
    res = locate_inputs_grouped(scores, groups, graph, ckff, 4)
    assert res.found()
    assert res.winning_group == "ga"
    assert sorted(res.input_candidates) == sorted(a)
    assert len(res.input_candidates) == 4


def test_grouped_prunes_unhit_members():
    graph, groups, scores, ckff, a = _three_group_fixture()
    # add one never-hit member to the winning group: it must not be returned
    groups.groups[0].members = sorted(groups.groups[0].members + ["a_dead"])
    scores.z["a_dead"] = 0.0
    graph.deps["a_dead"] = set()
    graph.rdeps["a_dead"] = set()
    graph.ffs.append("a_dead")
    res = locate_inputs_grouped(scores, groups, graph, ckff, 4)
    assert "a_dead" not in res.input_candidates
    assert sorted(res.input_candidates) == sorted(a)


def test_grouped_empty_when_winner_too_small():
    graph, groups, scores, ckff, a = _three_group_fixture()
    # split the winning group in half: neither half can supply w members
    half1, half2 = a[:2], a[2:]
    groups.groups[0] = Group("ga1", (1, 3), half1)
    groups.groups.insert(1, Group("ga2", (1, 5), half2))
    res = locate_inputs_grouped(scores, groups, graph, ckff, 4)
    assert not res.found()
    assert res.input_candidates == []


def test_grouped_requires_candidates():
    graph, groups, scores, _, _ = _three_group_fixture()
    with pytest.raises(ValueError):
        locate_inputs_grouped(scores, groups, graph, set(), 4)


def test_individual_no_hits_is_empty():
    ffs = ["s0", "s1", "x0"]
    graph = _stub_graph([], ffs)
    res = locate_inputs_individual(_stub_scores({f: 0.0 for f in ffs}),
                                   graph, {"s0", "s1"}, 4)
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
    for m in res.input_candidates:
        assert g.deps[m] & res.state_candidates


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
    assert set(res.analysis.scores.z) == set(oracle_w8_graph.ffs)
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


# Reference definitions the search and the localizers are checked against:
# the fanout ceiling widened one step at a time with a full rescan per
# step, and hit marking per (candidate, member) pair.

def _widening_search(graph, w, instances=1, shares=1):
    expected = expected_state_count(w, instances, shares)
    nb = naive_bounds(w)
    fif = nb.fif + 1
    foc = nb.fof
    max_fanout = max((graph.fanout(f) for f in graph.ffs), default=0)
    while True:
        bounds = SearchBounds(fif, math.inf, nb.fof, foc)
        candidates = filter_state_candidates(graph, bounds)
        if len(candidates) >= expected:
            return bounds, candidates
        if foc >= max_fanout:
            raise KeccakNotPresentError(
                f"Keccak not present: {len(candidates)}/{expected} candidates "
                f"at exhausted fanout ceiling {foc}")
        foc += 1


def _mark_hits(groups, graph, ckff):
    """gid -> (pair hit count, member -> hit)"""
    marks = {g.gid: [0, {m: False for m in g.members}] for g in groups.groups}
    member_group = {m: g.gid for g in groups.groups for m in g.members}
    for f in ckff:
        for m in graph.rdeps[f]:
            if m in ckff or m not in member_group:
                continue
            mark = marks[member_group[m]]
            mark[1][m] = True
            mark[0] += 1
    return marks


def _reference_grouped(scores, groups, graph, ckff, w):
    if not ckff:
        raise ValueError("empty state candidate set")
    marks = _mark_hits(groups, graph, ckff)
    survivors = []
    for g in groups.regular():
        hits, member_hit = marks[g.gid]
        if hits >= w:
            survivors.append((g, [m for m in g.members if member_hit[m]]))
    empty = RepqcResult(frozenset(ckff), [], None, "grouped", w,
                        expected_state_count(w))
    if not survivors:
        return empty

    def score(gm):
        return sum(scores.z[m] for m in gm[1]) / len(gm[1])

    survivors.sort(key=lambda gm: (score(gm), gm[0].key))
    best, members = survivors[0]
    if len(members) < w:
        return empty
    members = sorted(members, key=lambda m: (scores.z[m], m))[:w]
    return RepqcResult(frozenset(ckff), members, best.gid, "grouped", w,
                       expected_state_count(w))


def _reference_individual(scores, graph, ckff, w):
    if not ckff:
        raise ValueError("empty state candidate set")
    hit = set()
    for f in ckff:
        hit.update(m for m in graph.rdeps[f] if m not in ckff)
    if len(hit) < w:
        return RepqcResult(frozenset(ckff), [], None, "individual", w,
                           expected_state_count(w))
    members = sorted(hit, key=lambda m: (scores.z[m], m))[:w]
    return RepqcResult(frozenset(ckff), members, None, "individual", w,
                       expected_state_count(w))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (KeccakNotPresentError, ValueError) as e:
        return type(e), str(e)


def _dense_graph(rng, n):
    """Random graph whose degrees straddle the w = 1 floors (26, 26): each
    flip-flop draws its own edge density, so some clear both floors."""
    ffs = [f"f{i:02d}" for i in range(n)]
    edges = []
    for f in ffs:
        p = rng.choice((0.1, 0.5, 0.8, 0.95))
        edges += [(f, g) for g in ffs if rng.random() < p]
    return _stub_graph(edges, ffs)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 70),
       instances=st.integers(1, 2))
def test_clever_search_matches_widening(seed, n, instances):
    graph = _dense_graph(random.Random(seed), n)
    assert (_outcome(clever_search, graph, 1, instances)
            == _outcome(_widening_search, graph, 1, instances))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       w=st.integers(1, 6))
def test_localizers_match_hit_marking(seed, n, w):
    rng = random.Random(seed)
    graph = random_graph(rng, n)
    ffs = graph.ffs
    ckff = set(rng.sample(ffs, rng.randint(0, n // 2)))
    # few distinct scores, so ties in both rankings are common
    scores = _stub_scores({f: rng.choice((0.0, 0.25, 0.5, 1.5)) for f in ffs})
    buckets = {}
    for f in ffs:
        buckets.setdefault(rng.randint(0, 5), []).append(f)
    groups = [Group(f"g{k}", (k % 3, k // 3) if k else None, sorted(m))
              for k, m in sorted(buckets.items(), reverse=True)]
    table = GroupTable(groups)
    assert (_outcome(locate_inputs_grouped, scores, table, graph, ckff, w)
            == _outcome(_reference_grouped, scores, table, graph, ckff, w))
    assert (_outcome(locate_inputs_individual, scores, graph, ckff, w)
            == _outcome(_reference_individual, scores, graph, ckff, w))


class _CountingGraph(DependencyGraph):
    fanout_calls = 0

    def fanout(self, ff):
        self.fanout_calls += 1
        return super().fanout(ff)


def _counting(graph):
    return _CountingGraph(graph.ffs, graph.deps, graph.rdeps,
                          graph.input_reach, graph.output_reach)


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
    return _stub_graph(edges, ffs)


@pytest.mark.parametrize("n_state, found", [(30, True), (20, False)])
def test_clever_search_reads_each_fanout_a_bounded_number_of_times(
        n_state, found):
    graph = _counting(_high_ceiling_graph(n_state))
    want = _outcome(_widening_search, _high_ceiling_graph(n_state), 1)
    assert _outcome(clever_search, graph, 1) == want
    assert (want[0] is KeccakNotPresentError) != found
    assert graph.fanout_calls <= 3 * len(graph.ffs)
