import random
import statistics
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecscope.depgraph import (CombinationalCycleError, degree_histogram,
                               dump_degrees, dump_edges, extract_dependencies)
from kecscope.generator import GenConfig, generate_accelerator, generate_core
from kecscope.grouping import RESIDUAL_GROUP, compute_levels, group_by_levels
from kecscope.locate import PipelineConfig, run_pipeline
from kecscope.netlist import (ANALOG_ISLAND_TAG, CELL_KINDS, Cell, Netlist,
                              Port, anonymize, index_netlist, parse_netlist,
                              write_netlist)
from kecscope.scoring import compute_zscores
from kecscope.trojan import HthSpec, insert_hth

from named import Named


def test_three_ff_chain_hand_trace(chain3):
    g = Named(extract_dependencies(chain3))
    assert g.deps["ffa"] == {"ffc"}
    assert g.deps["ffb"] == {"ffc"}
    assert g.rdeps["ffc"] == {"ffa", "ffb"}
    assert g.fanin("ffc") == 2
    assert g.fanout("ffa") == 1
    assert g.input_reach["ffa"] is True
    assert g.input_reach["ffc"] is False
    assert g.output_reach["ffc"] and not g.output_reach["ffa"]


def test_no_ffs_empty_graph():
    n = parse_netlist("module m\ninput a\noutput b\n"
                      "cell INV i1 a=a y=b\nendmodule\n")
    g = extract_dependencies(n)
    assert g.ffs == [] and g.edge_count() == 0
    assert degree_histogram(g) == {}


def test_edge_and_degree_sums(chain3):
    g = extract_dependencies(chain3)
    named = Named(g)
    assert sum(named.fanin(f) for f in g.ffs) == g.edge_count()
    assert sum(named.fanout(f) for f in g.ffs) == g.edge_count()
    hist = degree_histogram(g)
    assert sum(hist.values()) == len(g.ffs)
    assert hist[(2, 0)] == 1  # ffc


def test_untagged_cycle_rejected():
    n = parse_netlist("module m\ninput clk\nnet a\nnet b\nnet q\n"
                      "cell INV i1 a=b y=a\ncell INV i2 a=a y=b\n"
                      "cell DFF f1 d=a clk=clk q=q\nendmodule\n")
    with pytest.raises(CombinationalCycleError):
        extract_dependencies(n)


def test_analog_island_is_opaque():
    # ffa feeds an island whose output feeds ffb: no dependency crosses it
    n = parse_netlist(
        "module m\ninput clk\ninput pi\nnet qa\nnet ring\nnet qb\n"
        "cell DFF fa d=pi clk=clk q=qa\n"
        "cell NAND2 r1 a=ring b=qa y=ring tag=analog_island\n"
        "cell DFF fb d=ring clk=clk q=qb\nendmodule\n")
    g = Named(extract_dependencies(n))
    assert g.deps["fa"] == set()
    assert g.fanin("fb") == 0


def test_core_w64_uniform_fanin_33():
    netlist, truth = generate_core(64)
    g = Named(extract_dependencies(netlist))
    state = truth.all_state_ffs()
    assert len(state) == 1600
    assert {g.fanin(f) for f in state} == {33}
    assert {g.fanout(f) for f in state} == {33}


def test_accelerator_floors_with_absorb(oracle_w64, oracle_w64_graph):
    _, truth = oracle_w64
    g = Named(oracle_w64_graph)
    for f in truth.all_state_ffs():
        assert g.fanin(f) >= 33
        assert g.fanout(f) >= 34


def test_histogram_buckets_cover_state(oracle_w64, oracle_w64_graph):
    _, truth = oracle_w64
    hist = degree_histogram(oracle_w64_graph)
    in_window = sum(cnt for (fi, fo), cnt in hist.items()
                    if fi >= 33 and 34 <= fo <= 35)
    assert in_window >= 1600


def test_anonymization_commutes(chain3):
    g = Named(extract_dependencies(chain3))
    blind, rename = anonymize(chain3, 5)
    gb = Named(extract_dependencies(blind))
    remapped = {rename[src]: {rename[d] for d in dsts}
                for src, dsts in g.deps.items()}
    assert remapped == gb.deps
    assert {rename[f]: reach
            for f, reach in g.input_reach.items()} == gb.input_reach


def test_dumps(chain3):
    g = extract_dependencies(chain3)
    assert dump_edges(g) == "ffa ffc\nffb ffc\n"
    lines = dump_degrees(g).splitlines()
    assert lines[0] == "ff,fanin,fanout"
    assert "ffc,2,0" in lines


def _reference(netlist):
    """Test-only definition of ``extract_dependencies``: a cone walk over
    the driver map that rebuilds each visited cell's ``input_pins()``.
    Returns (deps, rdeps, input_reach, output_reach)."""
    driver = index_netlist(netlist).driver
    pis = set(netlist.input_ports())
    ffs = [c.name for c in netlist.cells if c.is_seq()]
    deps = {f: set() for f in ffs}
    rdeps = {f: set() for f in ffs}
    input_reach = {}

    def walk(start):
        """(flip-flops, undriven primary inputs, nets) the walk reaches."""
        srcs, reached, seen = set(), set(), set()
        stack = list(start)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            drv = driver.get(net)
            if drv is None:
                if net in pis:
                    reached.add(net)
            elif drv.is_seq():
                srcs.add(drv.name)
            elif ANALOG_ISLAND_TAG not in drv.tags:
                stack.extend(n for _, n in drv.input_pins())
        return srcs, reached, seen

    for c in netlist.cells:
        if c.is_seq():
            srcs, reached, _ = walk([c.pins["d"]])
            rdeps[c.name] = srcs
            input_reach[c.name] = bool(reached)
            for s in srcs:
                deps[s].add(c.name)
    _, _, marked = walk(netlist.output_ports())
    output_reach = {c.name: c.pins["q"] in marked
                    for c in netlist.cells if c.is_seq()}
    return deps, rdeps, input_reach, output_reach


def _reference_levels(deps, rdeps, input_reach, output_reach):
    """Test-only definition of ``compute_levels``: a deque BFS over the
    name-keyed relation. Returns (input_level, output_level), name -> level
    or None."""
    def bfs(seeds, edges):
        level = {f: 1 for f in seeds}
        frontier = deque(seeds)
        while frontier:
            f = frontier.popleft()
            for g in edges[f]:
                if g not in level:
                    level[g] = level[f] + 1
                    frontier.append(g)
        return level

    fwd = bfs([f for f, reach in input_reach.items() if reach], deps)
    bwd = bfs([f for f, reach in output_reach.items() if reach], rdeps)
    return ({f: fwd.get(f) for f in deps}, {f: bwd.get(f) for f in deps})


def _reference_groups(input_level, output_level):
    """Test-only definition of ``group_by_levels``: (gid, key, members)
    rows, members sorted by name, the residual group last."""
    buckets = {}
    for f, il in input_level.items():
        ol = output_level[f]
        key = (il, ol) if il is not None and ol is not None else None
        buckets.setdefault(key, []).append(f)
    rows = [(f"g_in{key[0]}_out{key[1]}", key, sorted(buckets[key]))
            for key in sorted(k for k in buckets if k is not None)]
    if None in buckets:
        rows.append((RESIDUAL_GROUP, None, sorted(buckets[None])))
    return rows


def _reference_zscores(deps):
    """Test-only definition of ``compute_zscores`` over the name-keyed
    relation, in flip-flop order: name -> z."""
    feature = {f: len(sinks) for f, sinks in deps.items()}
    counts = Counter(feature.values())
    c = {f: counts[v] for f, v in feature.items()}
    mu = statistics.fmean(c.values())
    sigma = statistics.pstdev(c.values())
    if sigma == 0.0:
        return {f: 0.0 for f in c}
    return {f: max(0.0, (mu - c[f]) / sigma) for f in c}


def _assert_matches_reference(netlist):
    """Extraction agrees with the reference, both the call that builds the
    netlist's index and the call that reads it again, and so do the
    levels, groups and scores derived from it, compared through names."""
    deps, rdeps, input_reach, output_reach = _reference(netlist)
    for g in (extract_dependencies(netlist), extract_dependencies(netlist)):
        named = Named(g)
        assert g.ffs == [c.name for c in netlist.cells if c.is_seq()]
        # no id twice in one list, so a list's length is a degree
        for ids in (*g.deps, *g.rdeps):
            assert len(set(ids)) == len(ids)
        assert named.deps == deps
        assert named.rdeps == rdeps
        assert named.input_reach == input_reach
        assert named.output_reach == output_reach
    input_level, output_level = _reference_levels(deps, rdeps, input_reach,
                                                  output_reach)
    levels = compute_levels(g)
    assert named.of(levels.input_level) == input_level
    assert named.of(levels.output_level) == output_level
    assert [(grp.gid, grp.key, named.members(grp))
            for grp in group_by_levels(levels).groups] \
        == _reference_groups(input_level, output_level)
    if g.ffs:
        assert named.of(compute_zscores(g).z) == _reference_zscores(deps)


COMB_KINDS = sorted(k for k, spec in CELL_KINDS.items() if spec.expr is not None)


def _random_design(rng):
    """Netlist with every combinational kind, acyclic outside the island.
    Island-tagged cells may read any wire, so some loops run through an
    island; flip-flops read any net on d and rst (some have rst, some drive
    an output port directly), and the primary outputs read random nets.
    Every netlist it builds round-trips through its text."""
    inputs = [f"i{j}" for j in range(rng.randint(1, 4))]
    qs = [f"q{j}" for j in range(rng.randint(0, 8))]
    kinds = COMB_KINDS + [rng.choice(COMB_KINDS) for _ in range(rng.randint(0, 30))]
    rng.shuffle(kinds)
    wires = [f"w{j}" for j in range(len(kinds))]
    ports = [Port(p, "in") for p in ["clk"] + inputs]
    cells = []
    pool = inputs + qs
    for j, kind in enumerate(kinds):
        island = rng.random() < 0.15
        pins = {p: rng.choice(wires if island else pool)
                for p in CELL_KINDS[kind].inputs}
        pins["y"] = wires[j]
        cells.append(Cell(kind, f"g{j}", pins,
                          frozenset([ANALOG_ISLAND_TAG] if island else [])))
        pool.append(wires[j])
    for j in range(rng.randint(0, 3)):
        ports.append(Port(f"o{j}", "out"))
        if rng.random() < 0.3:
            cells.append(Cell("DFF", f"fo{j}",
                              {"d": rng.choice(pool), "clk": "clk", "q": f"o{j}"}))
        else:
            cells.append(Cell("BUF", f"ob{j}", {"a": rng.choice(pool), "y": f"o{j}"}))
    for j, q in enumerate(qs):
        pins = {"d": rng.choice(pool), "clk": "clk", "q": q}
        if rng.random() < 0.5:
            pins["rst"] = rng.choice(pool)
        cells.append(Cell("DFF", f"f{j}", pins))
    rng.shuffle(cells)
    n = Netlist("rnd", ports=ports, nets=wires + qs, cells=cells)
    assert parse_netlist(write_netlist(n)) == n
    return n


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_cone_walk_matches_reference(seed):
    _assert_matches_reference(_random_design(random.Random(seed)))


def test_cone_walk_matches_reference_on_generated_designs(oracle_w8):
    netlist, _ = oracle_w8
    masked, _ = generate_accelerator(GenConfig(w=8, shares=2, seed=4))
    # the trojan adds an island and taps the located register
    victim, _ = generate_accelerator(GenConfig(w=16, seed=2))
    result, _ = run_pipeline(victim, PipelineConfig(lane_width=16))
    trojaned, _ = insert_hth(victim, result,
                             HthSpec(t=16, l=16, trigger=0xBEEF, capture_delay=1))
    for design in (netlist, masked, trojaned, anonymize(masked, 3)[0]):
        _assert_matches_reference(design)
