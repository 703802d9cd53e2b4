import math
import statistics
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecscope.depgraph import extract_dependencies
from kecscope.netlist import anonymize
from kecscope.scoring import compute_zscores, dump_scores

from named import Named, graph


def graph_with_fanouts(fanouts):
    """Minimal stub graph whose flip-flops have the given fanout sizes."""
    ffs = [f"f{i}" for i in range(len(fanouts))]
    return graph(ffs, [(f, f"sink{i}_{j}")
                       for i, (f, n) in enumerate(zip(ffs, fanouts))
                       for j in range(n)])


def zscores(g):
    """The scores of a graph, by name."""
    return Named(g).of(compute_zscores(g))


def test_hand_computed_example():
    # fanouts {5,5,5,9}: counts {3,3,3,1}, mu=2.5, sigma=sqrt(0.75)
    t = zscores(graph_with_fanouts([5, 5, 5, 9]))
    assert t["f0"] == t["f1"] == t["f2"] == 0.0
    assert t["f3"] == pytest.approx(math.sqrt(3), abs=1e-9)


def test_all_same_fanout_is_all_zero():
    t = zscores(graph_with_fanouts([4, 4, 4]))
    assert set(t.values()) == {0.0}


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        compute_zscores(graph_with_fanouts([]))


@given(st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=40))
@settings(max_examples=80, deadline=None)
def test_monotone_in_rarity_and_nonnegative(fanouts):
    t = zscores(graph_with_fanouts(fanouts))
    counts = Counter(fanouts)
    c = {f"f{i}": counts[v] for i, v in enumerate(fanouts)}
    for a in c:
        assert t[a] >= 0.0
        for b in c:
            if c[a] < c[b]:
                assert t[a] >= t[b]
            if c[a] == c[b]:
                assert t[a] == t[b]


@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_one_float_per_distinct_count_equal_to_the_per_flip_flop_formula(fanouts):
    # the formula is evaluated once per distinct count and each value is
    # shared by its flip-flops; the floats and the CSV are those of the
    # formula and the format applied flip-flop by flip-flop
    g = graph_with_fanouts(fanouts)
    z = compute_zscores(g)
    counts = Counter(fanouts)
    c = [counts[v] for v in fanouts]
    mu, sigma = statistics.fmean(c), statistics.pstdev(c)
    assert z == [max(0.0, (mu - n) / sigma) if sigma else 0.0 for n in c]
    objects = {}
    for n, v in zip(c, z):
        objects.setdefault(n, set()).add(id(v))
    assert all(len(ids) == 1 for ids in objects.values())
    assert dump_scores(z, g) == "ff,z\n" + "".join(
        f"{g.ffs[i]},{z[i]:.6f}\n" for i in g.by_name)


def test_state_shares_one_score(oracle_w64, oracle_w64_graph):
    _, truth = oracle_w64
    t = zscores(oracle_w64_graph)
    g = Named(oracle_w64_graph)
    by_fanout = {}
    for f in truth.all_state_ffs():
        by_fanout.setdefault(g.fanout(f), set()).add(t[f])
    # identical structural fanout must mean identical score
    assert all(len(zs) == 1 for zs in by_fanout.values())


def test_inputs_score_below_control(oracle_w8, oracle_w8_graph):
    _, truth = oracle_w8
    t = zscores(oracle_w8_graph)
    mean_in = sum(t[f] for f in truth.all_input_ffs()) / len(truth.all_input_ffs())
    ctl = [f for f in truth.control_ffs if "ctl" in f or "_rc" in f]
    mean_ctl = sum(t[f] for f in ctl) / len(ctl)
    assert mean_in < mean_ctl


def test_scores_invariant_under_rename(chain3):
    t = zscores(extract_dependencies(chain3))
    blind, rename = anonymize(chain3, 8)
    tb = zscores(extract_dependencies(blind))
    assert {rename[f]: z for f, z in t.items()} == tb


def test_dump_scores_format():
    g = graph_with_fanouts([5, 5, 5, 9])
    lines = dump_scores(compute_zscores(g), g).splitlines()
    assert lines[0] == "ff,z"
    assert len(lines) == 5
    assert lines[1] == "f0,0.000000"
    assert lines[4] == "f3,1.732051"


def test_dump_row_count_matches_ffs(oracle_w8_graph):
    t = compute_zscores(oracle_w8_graph)
    assert len(dump_scores(t, oracle_w8_graph).splitlines()) \
        == len(oracle_w8_graph.ffs) + 1
