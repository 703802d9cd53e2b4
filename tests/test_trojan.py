from collections import Counter

import pytest

from kecscope.depgraph import extract_dependencies
from kecscope.generator import Builder, GenConfig, generate_accelerator
from kecscope.locate import PipelineConfig, run_pipeline
from kecscope.netlist import (ANALOG_ISLAND_TAG, parse_netlist, validate,
                              write_netlist)
from kecscope.sim import (equivalence_check, extends, reconstruct_secret,
                          simulate)
from kecscope.trojan import (PREFIX, HthSpec, InsertionError, insert_hth,
                             overhead_report)
from kecscope.truth import RepqcResult

from named import Named


def test_spec_validation():
    with pytest.raises(ValueError):
        HthSpec(t=128)
    with pytest.raises(ValueError):
        HthSpec(l=8)
    with pytest.raises(ValueError):
        HthSpec(t=16, trigger=1 << 16)
    with pytest.raises(ValueError):
        HthSpec(capture_delay=-1)
    with pytest.raises(ValueError):
        HthSpec(k_offset=-1)
    HthSpec(t=16, l=16, trigger=0xFFFF)


def _inserted(spec):
    """The trojaned netlist and the cells the insertion added, on a victim
    of 64 chained flip-flops, all of them located."""
    b = Builder("chain")
    q = b.port_in("d_in")
    b.port_in("clk")
    for i in range(64):
        q = b.dff(f"f{i}", q)
    victim = b.netlist()
    result = RepqcResult(frozenset(), [f"f{i}" for i in range(64)], None,
                         "grouped")
    trojaned, _ = insert_hth(victim, result, spec)
    return trojaned, trojaned.cells[len(victim.cells):]


def test_fragment_counts_t64_l64():
    trojaned, frag = _inserted(HthSpec(t=64, l=64, trigger=0))
    kinds = Counter(c.kind for c in frag)
    assert kinds["XNOR2"] == 64          # comparator bit compares
    # comparator reduction tree: 63 of the AND2s
    assert kinds["AND2"] >= 63
    sr_ffs = [c for c in frag if c.kind == "DFF"
              and c.name.startswith(f"{PREFIX}sr")]
    assert len(sr_ffs) == 64
    assert kinds["MUX2"] == 128          # load + shift mux per bit
    island = [c for c in frag if ANALOG_ISLAND_TAG in c.tags]
    assert len(island) == 10             # NAND + 4 INV + 4 BUF + MUX4
    assert validate(trojaned) == []


def test_leak_duration_is_half_l():
    assert HthSpec(t=16, l=16).leak_cycles() == 8
    assert HthSpec(t=64, l=64).leak_cycles() == 32


def test_leak_bus_is_two_bits():
    for t in (16, 32, 64):
        _, frag = _inserted(HthSpec(t=t, l=t, trigger=0))
        mux = next(c for c in frag if c.kind == "MUX4")
        assert {"s0", "s1"} <= set(mux.pins)


@pytest.fixture(scope="module")
def victim16():
    netlist, truth = generate_accelerator(GenConfig(w=16, decoy_ffs=400, seed=2))
    result, _ = run_pipeline(netlist, PipelineConfig(lane_width=16))
    assert result.input_candidates == truth.all_input_ffs()
    return netlist, truth, result


def _word(netlist, value, w=16):
    return {**_quiet(netlist),
            **{f"data_in0[{z}]": (value >> z) & 1 for z in range(w)}}


def _quiet(netlist):
    return {p: 0 for p in netlist.input_ports()}


def trigger_stimulus(netlist, m, k, capture_delay, tail=30, w=16):
    # register follows data_in with one cycle lag while the victim idles
    quiet = [_quiet(netlist)]
    return (quiet * 3 + [_word(netlist, m, w)] + quiet * capture_delay
            + [_word(netlist, k, w)] + quiet * tail)



@pytest.mark.parametrize("capture_delay", (0, 1, 5))
@pytest.mark.parametrize("l", (16, 64))
@pytest.mark.parametrize("t", (16, 64))
def test_every_cell_output_of_a_trojaned_design_is_read(oracle_w64, t, l,
                                                        capture_delay):
    # the trojan leaks into its analog island and reaches no primary
    # output, but no cell of it, or of the victim, drives a net nobody reads
    netlist, truth = oracle_w64
    result = RepqcResult(frozenset(truth.all_state_ffs()),
                         truth.all_input_ffs(), None, "grouped")
    trojaned, _ = insert_hth(netlist, result, HthSpec(
        t=t, l=l, trigger=0xBEEF, capture_delay=capture_delay))
    read = {net for c in trojaned.cells for net in c.nets[:-1]}
    read.update(trojaned.output_ports())
    assert [c.name for c in trojaned.cells if c.nets[-1] not in read] == []
    assert [c.name for c in trojaned.cells if c.kind == "MUX2"
            and c.pins["a"] == c.pins["b"]] == []


def test_insert_is_additive(victim16):
    netlist, _, result = victim16
    spec = HthSpec(t=16, l=16, trigger=0xBEEF, capture_delay=1)
    trojaned, edit = insert_hth(netlist, result, spec)
    assert validate(trojaned) == []
    assert edit.removed_cells == [] and edit.removed_nets == []
    assert len(edit.added_cells) == trojaned.cell_count() - netlist.cell_count()
    # original cells survive bit for bit
    before = {(c.kind, c.name, tuple(sorted(c.pins.items()))) for c in netlist.cells}
    after = {(c.kind, c.name, tuple(sorted(c.pins.items()))) for c in trojaned.cells}
    assert before <= after
    assert set(edit.tapped_nets) >= {netlist.cells_by_name()[f].pins["q"]
                                     for f in result.input_candidates}
    # the structural stealth verdict, also through the text both go through
    assert extends(trojaned, netlist) and not extends(netlist, trojaned)
    assert extends(parse_netlist(write_netlist(trojaned)),
                   parse_netlist(write_netlist(netlist)))


def test_insert_shares_and_keeps_the_victim(victim16):
    netlist, _, result = victim16
    text = write_netlist(netlist)
    trojaned, _ = insert_hth(netlist, result,
                             HthSpec(t=16, l=16, trigger=0xBEEF, capture_delay=1))
    assert netlist == parse_netlist(text)
    # the victim's cells come first, the same objects, never copied
    assert all(a is b for a, b in zip(trojaned.cells, netlist.cells))


def test_insert_needs_enough_candidates(victim16):
    netlist, _, result = victim16
    with pytest.raises(InsertionError):
        insert_hth(netlist, result, HthSpec(t=32, l=32, trigger=0))


def test_dormant_stealth(victim16):
    netlist, _, result = victim16
    spec = HthSpec(t=16, l=16, trigger=0xBEEF, capture_delay=1)
    trojaned, _ = insert_hth(netlist, result, spec)
    stim = [_quiet(netlist)] + [_word(netlist, v) for v in (
        0x1111, 0x2222, 0xFFFF, 0x0000, 0xBEEE)] + [_quiet(netlist)] * 10
    assert equivalence_check(netlist, trojaned, stim, len(stim))
    trace = simulate(trojaned, stim, len(stim))
    assert trace.leak_symbols() == []


def test_trigger_leaks_secret(victim16):
    netlist, _, result = victim16
    m, k = 0xBEEF, 0x5A3C
    spec = HthSpec(t=16, l=16, trigger=m, capture_delay=1)
    trojaned, _ = insert_hth(netlist, result, spec)
    stim = trigger_stimulus(trojaned, m, k, spec.capture_delay)
    trace = simulate(trojaned, stim, len(stim))
    assert len(trace.leak_symbols()) == spec.leak_cycles()
    assert reconstruct_secret(trace, spec.l) == k
    # leaking modulates power through the lookup values only
    on = {p for p in trace.power_uw if p > 0}
    assert on <= {32.3, 34.2, 36.9, 38.9}
    # primary outputs remain untouched even while triggered
    assert equivalence_check(netlist, trojaned, stim, len(stim))


def test_capture_delay_zero(victim16):
    netlist, _, result = victim16
    m, k = 0xBEEF, 0x0F0F
    spec = HthSpec(t=16, l=16, trigger=m, capture_delay=0)
    trojaned, _ = insert_hth(netlist, result, spec)
    stim = trigger_stimulus(trojaned, m, k, 0)
    trace = simulate(trojaned, stim, len(stim))
    assert reconstruct_secret(trace, spec.l) == k


def test_self_application(victim16):
    netlist, _, result = victim16
    spec = HthSpec(t=16, l=16, trigger=0xBEEF, capture_delay=1)
    trojaned, _ = insert_hth(netlist, result, spec)
    res2, _ = run_pipeline(trojaned, PipelineConfig(lane_width=16))
    assert res2.state_candidates == result.state_candidates
    assert set(res2.input_candidates) == set(result.input_candidates)


def test_trojan_ffs_land_in_residual_group(victim16):
    netlist, _, result = victim16
    spec = HthSpec(t=16, l=16, trigger=0xBEEF, capture_delay=1)
    trojaned, edit = insert_hth(netlist, result, spec)
    from kecscope.grouping import compute_levels
    graph = extract_dependencies(trojaned)
    output_level = Named(graph).of(compute_levels(graph).output_level)
    added_ffs = [c.name for c in trojaned.cells
                 if c.is_seq() and c.name in set(edit.added_cells)]
    assert added_ffs
    # nothing downstream of the trojan reaches a primary output
    assert all(output_level[f] is None for f in added_ffs)


def test_overhead_report_identity(victim16):
    netlist, _, _ = victim16
    rep = overhead_report(netlist, netlist)
    assert rep["delta_cells"] == 0 and rep["delta_pct"] == 0.0
    assert rep["fits"] is None


def test_overhead_budget_verdicts(victim16):
    netlist, _, result = victim16
    spec = HthSpec(t=16, l=16, trigger=0, capture_delay=1)
    trojaned, _ = insert_hth(netlist, result, spec)
    assert overhead_report(netlist, trojaned, budget_pct=50.0)["fits"] is True
    assert overhead_report(netlist, trojaned, budget_pct=0.01)["fits"] is False


def test_partial_secret_window_via_offset(oracle_w64):
    netlist, truth = oracle_w64
    result, _ = run_pipeline(netlist, PipelineConfig(lane_width=64))
    m16 = 0xBEE5
    spec = HthSpec(t=16, l=16, trigger=m16, capture_delay=1, k_offset=16)
    trojaned, _ = insert_hth(netlist, result, spec)
    k = 0x0123_4567_89AB_CDEF
    # trigger compares only the 16 lowest-index register bits
    m_word = (0xAAAA << 16) | m16
    stim = trigger_stimulus(trojaned, m_word, k, 1, w=64)
    trace = simulate(trojaned, stim, len(stim))
    assert reconstruct_secret(trace, spec.l) == (k >> 16) & 0xFFFF


def test_insertion_deterministic(victim16):
    netlist, _, result = victim16
    spec = HthSpec(t=16, l=16, trigger=0xBEEF, capture_delay=1)
    a, _ = insert_hth(netlist, result, spec)
    b, _ = insert_hth(netlist, result, spec)
    assert write_netlist(a) == write_netlist(b)


def _register(tap0="r0", clk15="clk"):
    """A victim of 16 flip-flops r0..r15 on clk (r15 on clk15) and a BUF
    u0, with a result that locates tap0, r1, ..., r15 in that order."""
    b = Builder("reg")
    d, clk = b.port_in("d"), b.port_in("clk")
    b.port_in("clk2")
    b.port_in("rst")
    for i in range(16):
        b.dff(f"r{i}", d, clk=clk15 if i == 15 else clk)
    b.cell("BUF", "u0", a=d, y=b.port_out("o"))
    taps = [tap0] + [f"r{i}" for i in range(1, 16)]
    return b.netlist(), RepqcResult(frozenset(), taps, None, "grouped", 0)


SPEC16 = HthSpec(t=16, l=16, trigger=0xBEEF)


def test_insert_into_a_clean_register():
    netlist, result = _register()
    for reset_net in (None, "rst"):
        trojaned, _ = insert_hth(netlist, result, SPEC16, reset_net=reset_net)
        assert validate(trojaned) == []


# _register arguments, reset_net -> the InsertionError message
INSERTION_ERRORS = {
    "attach_point_not_a_flip_flop": ({"tap0": "u0"}, None,
                                     "attach point 'u0' is not a victim flip-flop"),
    "attach_point_repeated": ({"tap0": "r1"}, None,
                              "attach point 'r1' is repeated"),
    "taps_on_two_clocks": ({"clk15": "clk2"}, None,
                           r"tapped flip-flops span clocks \['clk', 'clk2'\]"),
    "unknown_reset_net": ({}, "nope", "reset net 'nope' not in victim"),
}


@pytest.mark.parametrize("case", sorted(INSERTION_ERRORS))
def test_insertion_errors(case):
    register, reset_net, message = INSERTION_ERRORS[case]
    netlist, result = _register(**register)
    with pytest.raises(InsertionError, match=message):
        insert_hth(netlist, result, SPEC16, reset_net=reset_net)
