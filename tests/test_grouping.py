from kecscope.depgraph import extract_dependencies
from kecscope.generator import GenConfig, generate_accelerator
from kecscope.grouping import (RESIDUAL_GROUP, compute_levels, dump_groups,
                               group_by_levels)
from kecscope.netlist import anonymize, parse_netlist

from named import Named

PI_FF_FF_PO = """\
module m
input pi
input clk
output po
net q1
net q2
cell DFF ff1 d=pi clk=clk q=q1
cell DFF ff2 d=q1 clk=clk q=q2
cell BUF b1 a=q2 y=po
endmodule
"""


def _levels(graph):
    """(input_level, output_level) of a graph, name -> level or None."""
    named, levels = Named(graph), compute_levels(graph)
    return named.of(levels.input_level), named.of(levels.output_level)


def test_direct_pi_gives_level_one():
    n = parse_netlist(PI_FF_FF_PO)
    input_level, _ = _levels(extract_dependencies(n))
    assert input_level["ff1"] == 1


def test_chain_levels_hand_traced():
    n = parse_netlist(PI_FF_FF_PO)
    input_level, output_level = _levels(extract_dependencies(n))
    assert (input_level["ff1"], output_level["ff1"]) == (1, 2)
    assert (input_level["ff2"], output_level["ff2"]) == (2, 1)


def test_unreachable_marked_and_residual():
    # isolated self-looping flip-flop: no PI in cone, no PO reach
    n = parse_netlist("module m\ninput clk\nnet q\nnet nq\n"
                      "cell DFF f1 d=nq clk=clk q=q\n"
                      "cell INV i1 a=q y=nq\nendmodule\n")
    g = extract_dependencies(n)
    input_level, output_level = _levels(g)
    assert input_level["f1"] is None
    assert output_level["f1"] is None
    table = group_by_levels(compute_levels(g))
    assert table.groups[-1].gid == RESIDUAL_GROUP
    assert Named(g).members(table.groups[-1]) == ["f1"]
    assert table.regular() == table.groups[:-1]


def test_partition_property():
    n = parse_netlist(PI_FF_FF_PO)
    g = extract_dependencies(n)
    table = group_by_levels(compute_levels(g))
    seen = [m for grp in table.groups for m in Named(g).members(grp)]
    assert sorted(seen) == sorted(g.ffs)
    assert len(seen) == len(set(seen))


def test_groups_partition_sizes():
    # levels {(1,2),(1,2),(2,1)} -> two groups of sizes 2 and 1
    n = parse_netlist(
        "module m\ninput pi\ninput clk\noutput po\n"
        "net q1\nnet q1b\nnet q2\nnet nx\n"
        "cell DFF ff1 d=pi clk=clk q=q1\n"
        "cell DFF ff1b d=pi clk=clk q=q1b\n"
        "cell XOR2 x1 a=q1 b=q1b y=nx\n"
        "cell DFF ff2 d=nx clk=clk q=q2\n"
        "cell BUF b1 a=q2 y=po\nendmodule\n")
    table = group_by_levels(compute_levels(extract_dependencies(n)))
    sizes = sorted(len(g.members) for g in table.regular())
    assert sizes == [1, 2]


def test_input_register_one_group(oracle_w64, oracle_w64_graph):
    _, truth = oracle_w64
    table = group_by_levels(compute_levels(oracle_w64_graph))
    named = Named(oracle_w64_graph)
    holders = {g.gid for g in table.regular()
               for f in truth.all_input_ffs() if f in set(named.members(g))}
    assert len(holders) == 1


def test_state_one_level_above_inputs(oracle_w64, oracle_w64_graph):
    _, truth = oracle_w64
    input_level, _ = _levels(oracle_w64_graph)
    in_levels = {input_level[f] for f in truth.all_input_ffs()}
    st_levels = {input_level[f] for f in truth.all_state_ffs()}
    assert in_levels == {1}
    assert st_levels == {2}


def test_split_loader_two_groups_of_half():
    netlist, truth = generate_accelerator(
        GenConfig(w=64, decoy_ffs=500, seed=5, loader="split"))
    graph = extract_dependencies(netlist)
    table = group_by_levels(compute_levels(graph))
    ins = set(truth.all_input_ffs())
    named = Named(graph)
    counts = sorted(len(ins & set(named.members(g))) for g in table.regular()
                    if ins & set(named.members(g)))
    assert counts == [32, 32]


def test_level_monotonicity(oracle_w8_graph):
    g = Named(oracle_w8_graph)
    input_level, _ = _levels(oracle_w8_graph)
    for src, sinks in g.deps.items():
        ls = input_level[src]
        if ls is None:
            continue
        for dst in sinks:
            ld = input_level[dst]
            assert ld is not None and ld <= ls + 1


def test_levels_anonymization_invariant(chain3):
    input_level, _ = _levels(extract_dependencies(chain3))
    blind, rename = anonymize(chain3, 4)
    blind_level, _ = _levels(extract_dependencies(blind))
    assert {rename[f]: v for f, v in input_level.items()} == blind_level


def test_dump_groups_format():
    n = parse_netlist(PI_FF_FF_PO)
    g = extract_dependencies(n)
    out = dump_groups(group_by_levels(compute_levels(g)), g)
    lines = out.splitlines()
    assert lines[0] == "group,input_level,output_level,size,members"
    assert any(line.startswith("g_in1_out2,1,2,1,ff1") for line in lines)
