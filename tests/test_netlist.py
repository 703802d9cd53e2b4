import random
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecscope.depgraph import extract_dependencies
from kecscope import netlist as netlist_module
from kecscope.generator import Builder, GenConfig, generate_accelerator
from kecscope.locate import PipelineConfig, run_pipeline
from kecscope.netlist import (ANALOG_ISLAND_TAG, CELL_KINDS, ID_RE, NO_TAGS,
                              ArityMismatchError, Cell,
                              CombinationalCycleError, DeclarationError,
                              Netlist, NetlistError, NetlistSyntaxError,
                              Port, UnknownCellKindError,
                              _declaration_line, anonymize, index_netlist,
                              parse_netlist, validate, write_netlist)
from kecscope.sim import simulate
from kecscope.trojan import HthSpec, insert_hth
from kecscope.truth import RepqcResult

INV_DFF = """\
module tiny
input a
input clk
output q
net n1
cell INV i1 a=a y=n1
cell DFF f1 d=n1 clk=clk q=q
endmodule
"""


def test_empty_module_with_ports():
    n = parse_netlist("module m\ninput a\ninput b\nendmodule\n")
    assert n.cell_count() == 0
    assert len(n.ports) == 2


def test_empty_module_round_trip():
    text = write_netlist(Netlist(name="m"))
    assert text == "module m\nendmodule\n"
    assert parse_netlist(text) == Netlist(name="m")


def test_two_cell_fixture():
    n = parse_netlist(INV_DFF)
    kinds = sorted(c.kind for c in n.cells)
    assert kinds == ["DFF", "INV"]
    assert len(n.all_nets()) == 4
    assert parse_netlist(write_netlist(n)) == n


def test_arity_mismatch_extra_pin():
    bad = INV_DFF.replace("cell INV i1 a=a y=n1", "cell INV i1 a=a b=clk y=n1")
    with pytest.raises(ArityMismatchError):
        parse_netlist(bad)


def test_arity_mismatch_missing_pin():
    bad = INV_DFF.replace("cell DFF f1 d=n1 clk=clk q=q", "cell DFF f1 d=n1 q=q")
    with pytest.raises(ArityMismatchError):
        parse_netlist(bad)


def test_unknown_cell_kind():
    with pytest.raises(UnknownCellKindError):
        parse_netlist(INV_DFF.replace("cell INV", "cell NOT"))


def test_undriven_net():
    bad = INV_DFF.replace("cell INV i1 a=a y=n1\n", "")
    with pytest.raises(NetlistSyntaxError) as e:
        parse_netlist(bad)
    assert str(e.value) == "line 5: net 'n1' driven by nothing"


def test_multiply_driven_net():
    bad = INV_DFF.replace("endmodule", "cell BUF b1 a=a y=n1\nendmodule")
    with pytest.raises(NetlistSyntaxError) as e:
        parse_netlist(bad)
    assert str(e.value) == (
        "line 8: net 'n1' driven twice, by cell 'i1' and cell 'b1'")


def test_syntax_error_has_line():
    for text, message in (
            ("module m\nbogus keyword here\nendmodule\n", "unknown keyword 'bogus'"),
            ("module m\nmodule n\nendmodule\n", "duplicate module line")):
        with pytest.raises(NetlistSyntaxError) as e:
            parse_netlist(text)
        assert (e.value.line, str(e.value)) == (2, f"line 2: {message}")
    # a text with no module line has no line to name
    for text in ("", "# only a comment\n"):
        with pytest.raises(NetlistSyntaxError) as e:
            parse_netlist(text)
        assert (e.value.line, str(e.value)) == (None, "no module found")


# a cell line appended to INV_DFF (as line 9) -> the message it fails with;
# a bad cell name is reported before a pin bound twice, and that before a
# pin net that is undeclared or no identifier
CELL_LINE_ERRORS = {
    "bad_cell_name": ("cell BUF b$1 a=a y=q2", "bad identifier 'b$1'"),
    "bad_pin_net": ("cell BUF b1 a=a$ y=q2", "bad identifier 'a$'"),
    "bad_and_undeclared_net": ("cell BUF b1 a=zz$ y=q2",
                               "bad identifier 'zz$'"),
    "undeclared_net": ("cell BUF b1 a=zz y=q2", "net 'zz' not declared"),
    "pin_bound_twice_declared": ("cell BUF b1 a=a a=clk y=q2",
                                 "pin 'a' bound twice"),
    "pin_bound_twice_undeclared": ("cell BUF b1 a=a a=zz y=q2",
                                   "pin 'a' bound twice"),
    "cell_declared_twice": ("cell BUF i1 a=a y=q2", "cell 'i1' declared twice"),
}


@pytest.mark.parametrize("case", sorted(CELL_LINE_ERRORS))
def test_cell_line_errors(case):
    line, message = CELL_LINE_ERRORS[case]
    text = INV_DFF.replace("output q\n", "output q\noutput q2\n").replace(
        "endmodule", line + "\nendmodule")
    assert text.splitlines()[8] == line
    with pytest.raises(NetlistSyntaxError) as e:
        parse_netlist(text)
    assert type(e.value) is NetlistSyntaxError
    assert e.value.line == 9
    assert str(e.value) == f"line 9: {message}"


def test_comments_and_blank_lines():
    text = "# header\nmodule m\n\ninput a # trailing\noutput b\n" \
           "cell BUF b1 a=a y=b\nendmodule\n"
    n = parse_netlist(text)
    assert n.cell_count() == 1


def test_dff_optional_rst_round_trips():
    text = INV_DFF.replace("input clk\n", "input clk\ninput rst\n").replace(
        "cell DFF f1 d=n1 clk=clk q=q", "cell DFF f1 d=n1 clk=clk rst=rst q=q")
    n = parse_netlist(text)
    assert parse_netlist(write_netlist(n)) == n


def test_tags_preserved():
    text = INV_DFF.replace("cell INV i1 a=a y=n1",
                           "cell INV i1 a=a y=n1 tag=analog_island")
    n = parse_netlist(text)
    again = parse_netlist(write_netlist(n))
    assert again == n
    assert "analog_island" in again.cells[0].tags


def test_validate_combinational_cycle():
    text = ("module m\ninput clk\nnet a\nnet b\n"
            "cell INV i1 a=b y=a\ncell INV i2 a=a y=b\nendmodule\n")
    # the index's error, the one fault left
    [error] = validate(parse_netlist(text))
    assert type(error) is CombinationalCycleError
    assert str(error) == "combinational-cycle: i1,i2"


def test_validate_cycle_exempt_when_tagged():
    text = ("module m\ninput clk\nnet a\nnet b\n"
            "cell INV i1 a=b y=a tag=analog_island\n"
            "cell INV i2 a=a y=b tag=analog_island\nendmodule\n")
    assert validate(parse_netlist(text)) == []


def test_validate_reports_dangling_output():
    # an output port nothing drives: the netlist cannot be made
    with pytest.raises(DeclarationError, match="net 'b' driven by nothing"):
        Netlist("m", ports=[Port("a", "in"), Port("b", "out")])


def test_validate_missing_output_pin_is_arity():
    # a cell checks its own pins when it is made, so no netlist holds this
    with pytest.raises(ArityMismatchError, match="'b1'"):
        Cell("BUF", "b1", {"a": "a"})


# a cell appended by hand to INV_DFF, with the nets it needs declared ->
# the message of the DeclarationError that keeps the netlist from being
# made; parse_netlist rejects each such netlist
SPANNING_VIOLATIONS = {
    "duplicate-cell": (Cell("BUF", "i1", {"a": "a", "y": "n2"}), ["n2"],
                       "cell 'i1' declared twice"),
    "undeclared-net": (Cell("BUF", "b1", {"a": "ghost", "y": "n2"}), ["n2"],
                       "cell 'b1' uses undeclared net 'ghost'"),
    "multi-driven-net": (Cell("BUF", "b1", {"a": "a", "y": "n1"}), [],
                         "net 'n1' driven twice, by cell 'i1' and cell 'b1'"),
    "multi-driven-input": (Cell("BUF", "b1", {"a": "clk", "y": "a"}), [],
                           "net 'a' driven twice, by its input port and "
                           "cell 'b1'"),
}


@pytest.mark.parametrize("case", sorted(SPANNING_VIOLATIONS))
def test_validate_reports_what_spans_cells(case):
    cell, nets, message = SPANNING_VIOLATIONS[case]
    n = parse_netlist(INV_DFF)
    with pytest.raises(DeclarationError) as e:
        replace(n, nets=n.nets + tuple(nets), cells=n.cells + (cell,))
    assert str(e.value) == message


# ports, nets and cells of a netlist that cannot be made -> the message of
# its DeclarationError and the net and cell it names
CONSTRUCTION_FAULTS = {
    "port_and_net": ([Port("a", "in"), Port("y", "out")], ["a"],
                     [Cell("INV", "u1", {"a": "a", "y": "y"})],
                     "net 'a' declared twice", "a", None),
    "two_ports": ([Port("a", "in"), Port("y", "out"), Port("a", "out")], [],
                  [Cell("INV", "u1", {"a": "a", "y": "y"})],
                  "net 'a' declared twice", "a", None),
    "cell_name_twice": ([Port("a", "in"), Port("y", "out")], ["n"],
                        [Cell("INV", "u1", {"a": "a", "y": "n"}),
                         Cell("INV", "u1", {"a": "n", "y": "y"})],
                        "cell 'u1' declared twice", None, "u1"),
    "undeclared_pin_net": ([Port("a", "in"), Port("y", "out")], [],
                           [Cell("AND2", "u1", {"a": "a", "b": "ghost",
                                                "y": "y"})],
                           "cell 'u1' uses undeclared net 'ghost'",
                           "ghost", "u1"),
    "two_cells_drive_a_net": ([Port("a", "in"), Port("y", "out")], [],
                              [Cell("INV", "u1", {"a": "a", "y": "y"}),
                               Cell("BUF", "u2", {"a": "a", "y": "y"})],
                              "net 'y' driven twice, by cell 'u1' and "
                              "cell 'u2'", "y", "u2"),
    "a_cell_drives_an_input": ([Port("a", "in"), Port("y", "out")], [],
                               [Cell("INV", "u1", {"a": "a", "y": "y"}),
                                Cell("TIE0", "u2", {"y": "a"})],
                               "net 'a' driven twice, by its input port "
                               "and cell 'u2'", "a", "u2"),
    "undriven_net": ([Port("a", "in"), Port("y", "out")], ["n"],
                     [Cell("INV", "u1", {"a": "n", "y": "y"})],
                     "net 'n' driven by nothing", "n", None),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTION_FAULTS))
def test_a_netlist_checks_its_declarations(case):
    ports, nets, cells, message, net, cell = CONSTRUCTION_FAULTS[case]
    with pytest.raises(DeclarationError) as e:
        Netlist("m", ports=ports, nets=nets, cells=cells)
    assert (str(e.value), e.value.net, e.value.cell) == (message, net, cell)


# INV_DFF with a declaration line put before line 6 ("cell INV i1 ...")
# -> the line and message of the NetlistSyntaxError
DECLARATION_LINES = {
    "net_after_port": ("net a", 6, "net 'a' declared twice"),
    "port_after_port": ("output clk", 6, "net 'clk' declared twice"),
    "cell_before_cell": ("cell INV f1 a=a y=q", 8,
                         "cell 'f1' declared twice"),
    "undeclared_net": ("cell BUF b1 a=zz y=q", 6, "net 'zz' not declared"),
    "driver_before_driver": ("cell BUF b1 a=a y=q", 8,
                             "net 'q' driven twice, by cell 'b1' and "
                             "cell 'f1'"),
    "cell_drives_an_input": ("cell TIE1 t1 y=clk", 6,
                             "net 'clk' driven twice, by its input port and "
                             "cell 't1'"),
    "undriven_net": ("net n2", 6, "net 'n2' driven by nothing"),
}


@pytest.mark.parametrize("case", sorted(DECLARATION_LINES))
def test_a_declaration_error_has_its_line(case):
    line, lineno, message = DECLARATION_LINES[case]
    text = INV_DFF.replace("cell INV i1", line + "\ncell INV i1")
    with pytest.raises(NetlistSyntaxError) as e:
        parse_netlist(text)
    assert (e.value.line, str(e.value)) == (lineno, f"line {lineno}: {message}")


def test_a_net_may_be_declared_after_its_reader():
    text = INV_DFF.replace("net n1\n", "").replace("endmodule", "net n1\nendmodule")
    assert text.splitlines()[-2:] == ["net n1", "endmodule"]
    assert parse_netlist(text) == parse_netlist(INV_DFF)


def test_a_netlist_is_frozen():
    n = parse_netlist(INV_DFF)
    for field in ("name", "ports", "nets", "cells", "attributes"):
        with pytest.raises(FrozenInstanceError):
            setattr(n, field, getattr(n, field))
    assert type(n.cells) is tuple


def test_no_derived_netlist_shares_writable_attributes():
    # a chain of 16 flip-flops, enough for a 16-bit trojan
    text = "\n".join(
        ["module m", "input clk", "input a", "attr k original"]
        + [f"net q{i}" for i in range(16)]
        + [f"cell DFF f{i} d={f'q{i - 1}' if i else 'a'} clk=clk q=q{i}"
           for i in range(16)]
        + ["endmodule"]) + "\n"
    source = parse_netlist(text)
    written = write_netlist(source)
    b = Builder(source)
    b.cell("BUF", "extra", a="a", y=b.net())
    result = RepqcResult(frozenset(), [f"f{i}" for i in range(16)], None,
                         "grouped")
    kept = {"k": "original"}
    derived = [(source, kept), (anonymize(source, 1)[0], {}),
               (b.netlist(), kept),
               (insert_hth(source, result, HthSpec(t=16, l=16))[0], kept)]
    for n, attributes in derived:
        assert dict(n.attributes) == attributes
        with pytest.raises(TypeError):
            n.attributes["k"] = "changed"
    assert write_netlist(source) == written
    assert parse_netlist(written) == source


def test_every_stage_reads_one_index(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return index_netlist(n)

    # the cached property looks index_netlist up as a module global
    monkeypatch.setattr(netlist_module, "index_netlist", counted)
    generated, _ = generate_accelerator(GenConfig(w=8, seed=3))
    calls.clear()
    n = parse_netlist(write_netlist(generated))
    assert validate(n) == []
    run_pipeline(n, PipelineConfig(lane_width=8))
    stim = [{p: 0 for p in n.input_ports()}] * 2
    assert (simulate(n, stim, 2, check=True).outputs
            == simulate(n, stim, 2, check=False).outputs)
    assert calls == [n] and n.index is n.index


# one island rule for validate, extract_dependencies and simulate: island
# outputs cut every path, so a loop is a cycle only without an island cell
ISLAND_RULE_CASES = {
    "buf_reads_oscillator": (True, """\
module m
input clk
input en
net fb
net t
net q
cell NAND2 ron a=fb b=en y=fb tag=analog_island
cell BUF tap a=fb y=t
cell DFF f1 d=t clk=clk q=q
endmodule
"""),
    "loop_with_one_tagged_cell": (True, """\
module m
input clk
net a
net b
net q
cell INV i1 a=b y=a tag=analog_island
cell INV i2 a=a y=b
cell DFF f1 d=b clk=clk q=q
endmodule
"""),
    "untagged_loop": (False, """\
module m
input clk
net a
net b
net q
cell INV i1 a=b y=a
cell INV i2 a=a y=b
cell DFF f1 d=b clk=clk q=q
endmodule
"""),
    # one cell that reads its own output: its own predecessor
    "untagged_self_loop": (False, """\
module m
input clk
net n
net q
cell INV i1 a=n y=n
cell DFF f1 d=n clk=clk q=q
endmodule
"""),
}


@pytest.mark.parametrize("case", sorted(ISLAND_RULE_CASES))
def test_island_rule_agrees(case):
    accepted, text = ISLAND_RULE_CASES[case]
    n = parse_netlist(text)
    stim = [{p: 0 for p in n.input_ports()}]
    if accepted:
        assert validate(n) == []
        extract_dependencies(n)
        simulate(n, stim, 1, check=False)
    else:
        assert [type(e) for e in validate(n)] == [CombinationalCycleError]
        with pytest.raises(CombinationalCycleError):
            extract_dependencies(n)
        with pytest.raises(CombinationalCycleError):
            simulate(n, stim, 1, check=False)


# two flip-flops whose INV and BUF both drive output y
DOUBLE_DRIVEN = """\
module m
input clk
input a
output y
net q1
net q2
cell DFF f1 d=a clk=clk q=q1
cell DFF f2 d=a clk=clk q=q2
cell INV i1 a=q1 y=y
cell BUF b1 a=q2 y=y
endmodule
"""


def test_a_net_driven_twice_is_rejected_without_validation():
    # no netlist holds it, so no stage that skips validate can keep one
    # of the drivers silently
    with pytest.raises(NetlistSyntaxError) as e:
        parse_netlist(DOUBLE_DRIVEN)
    assert str(e.value) == (
        "line 10: net 'y' driven twice, by cell 'i1' and cell 'b1'")


COMB_KINDS = sorted(k for k, spec in CELL_KINDS.items() if spec.expr)


def _random_netlist(rng):
    """A valid netlist of up to 8 cells, each reading earlier nets or a
    port: DFFs with and without rst, and every combinational kind, now
    and then tagged as an island, as a spare, or both. Every net but the
    first may be an output port instead, and up to two attributes are set."""
    b_nets = [f"n{i}" for i in range(rng.randint(1, 8))]
    cells = []
    driven = []
    for i, net in enumerate(b_nets):
        def src():
            return rng.choice(driven + ["pi"])
        if rng.random() < 0.4:
            pins = {"d": src(), "clk": "clk", "q": net}
            if rng.random() < 0.5:
                pins["rst"] = src()
            cells.append(Cell("DFF", f"f{i}", pins))
        else:
            kind = rng.choice(COMB_KINDS)
            pins = {pin: src() for pin in CELL_KINDS[kind].inputs}
            tags = [tag for tag, p in [("analog_island", 0.1), ("spare", 0.15)]
                    if rng.random() < p]
            cells.append(Cell(kind, f"g{i}", {**pins, "y": net},
                              frozenset(tags)))
        driven.append(net)
    outputs = [net for net in b_nets[1:] if rng.random() < 0.3]
    attributes = {f"k{i}": rng.choice(["v", "1", "x_y[0]"])
                  for i in range(rng.randint(0, 2))}
    return Netlist("rnd", ports=[Port("clk", "in"), Port("pi", "in"),
                                 *[Port(net, "out") for net in outputs]],
                   nets=[net for net in b_nets if net not in outputs],
                   cells=cells, attributes=attributes)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_round_trip_random_netlists(seed):
    n = _random_netlist(random.Random(seed))
    assert parse_netlist(write_netlist(n)) == n


def _reference_parse(text):
    """The slow definition of parse_netlist, kept as it was before the
    parser's fast path: every cell line split pin by pin into a dict, and
    every cell made and checked by the Cell constructor."""
    name = None
    closed = False
    ports: list[Port] = []
    nets: list[str] = []
    cells: list[Cell] = []
    attributes: dict[str, str] = {}

    def identifier(token, lineno):
        if not ID_RE.match(token):
            raise NetlistSyntaxError(f"bad identifier {token!r}", lineno)
        return token

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kw = tok[0]
        if kw == "module":
            if name is not None:
                raise NetlistSyntaxError("duplicate module line", lineno)
            if len(tok) != 2 or not ID_RE.match(tok[1]):
                raise NetlistSyntaxError("expected: module NAME", lineno)
            name = tok[1]
            continue
        if name is None:
            raise NetlistSyntaxError("statement before module line", lineno)
        if closed:
            raise NetlistSyntaxError("statement after endmodule", lineno)
        if kw in ("input", "output", "net"):
            if len(tok) != 2:
                raise NetlistSyntaxError(f"expected: {kw} NET", lineno)
            net = identifier(tok[1], lineno)
            if kw == "net":
                nets.append(net)
            else:
                ports.append(Port(net, "in" if kw == "input" else "out"))
        elif kw == "attr":
            if len(tok) != 3:
                raise NetlistSyntaxError("expected: attr KEY VALUE", lineno)
            attributes[tok[1]] = tok[2]
        elif kw == "cell":
            if len(tok) < 3:
                raise NetlistSyntaxError("expected: cell KIND ID PIN=NET ...", lineno)
            cell = identifier(tok[2], lineno)
            pins: dict[str, str] = {}
            tags = set()
            for item in tok[3:]:
                if "=" not in item:
                    raise NetlistSyntaxError(f"expected PIN=NET, got {item!r}", lineno)
                pin, net = item.split("=", 1)
                if pin == "tag":
                    tags.add(net)
                elif pin in pins:
                    raise NetlistSyntaxError(f"pin {pin!r} bound twice", lineno)
                else:
                    pins[pin] = net
            cells.append(Cell(tok[1], cell, pins,
                              frozenset(tags) if tags else NO_TAGS))
        elif kw == "endmodule":
            closed = True
        else:
            raise NetlistSyntaxError(f"unknown keyword {kw!r}", lineno)

    if name is None:
        raise NetlistSyntaxError("no module found")
    if not closed:
        raise NetlistSyntaxError("missing endmodule")
    try:
        return Netlist(name, ports, nets, cells, attributes)
    except DeclarationError as e:
        raise _declaration_line(text, e) from None


def _outcome(parse, text):
    """The netlist, or the type, message and line of the error."""
    try:
        return parse(text)
    except NetlistError as e:
        return type(e), str(e), getattr(e, "line", None)


def _cell_lines(n, rng, scramble):
    """Each cell line of n: the one write_netlist writes, or, with
    ``scramble``, its pins in random order with the tags among them, split
    by runs of spaces and tabs, and now and then a trailing comment."""
    written = [line for line in write_netlist(n).splitlines()
               if line.startswith("cell ")]
    if not scramble:
        return written
    lines = []
    for c, line in zip(n.cells, written):
        if rng.random() < 0.3:
            lines.append(line)
            continue
        items = [f"{p}={net}" for p, net in c.pins.items()]
        items += [f"tag={t}" for t in sorted(c.tags)]
        rng.shuffle(items)
        gaps = [rng.choice([" ", "  ", "\t", " \t "]) for _ in range(len(items) + 3)]
        line = "".join(g + t for g, t in zip(gaps, ["cell", c.kind, c.name, *items]))
        lines.append(line + rng.choice(["", " ", "  # note", "# a=b"]))
    return lines


def _text(n, cell_lines, rng):
    """n's text with the given cell lines, blank and comment lines
    scattered among its lines."""
    head = write_netlist(n).partition("\ncell ")[0]
    lines = head.splitlines() + cell_lines + ["endmodule"]
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(1, len(lines) - 1), rng.choice(["", "  ", "# x"]))
    return "\n".join(lines) + "\n"


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_parse_matches_the_reference(seed):
    rng = random.Random(seed)
    n = _random_netlist(rng)
    text = _text(n, _cell_lines(n, rng, scramble=True), rng)
    assert parse_netlist(text) == _reference_parse(text) == n
    # the writer's form: no blank or comment line, every cell as written
    text = write_netlist(n)
    assert parse_netlist(text) == _reference_parse(text) == n


# characters that may take a text out of the writer's form: the ones that
# split a line (str.splitlines) or a token (str.split), a comment, a pin's
# "=" and a character no identifier holds
EDIT_CHARACTERS = ["\r", "\t", " ", "#", "=", "$", "\x0b", "\x0c", "\x1c",
                   "\x85", "\u2028"]


@given(seed=st.integers(min_value=0, max_value=10_000),
       edit=st.sampled_from([*EDIT_CHARACTERS, None]))
@settings(max_examples=1000, deadline=None)
def test_one_character_off_the_writers_form_parses_as_the_reference(seed, edit):
    # None deletes one character, any other edit inserts it, at random or
    # at either side of a line break; a "#" inside a net and a line split
    # by a character other than "\n" are the edits that a scan of whole
    # lines could read otherwise
    rng = random.Random(seed)
    text = write_netlist(_random_netlist(rng))
    breaks = [i for i, ch in enumerate(text) if ch == "\n"]
    at = rng.choice([rng.randrange(len(text)),
                     rng.choice(breaks) + rng.randint(0, 1)])
    text = text[:at] + (edit or "") + text[at + (edit is None):]
    assert _outcome(parse_netlist, text) == _outcome(_reference_parse, text)


def test_the_writers_form_parses_in_one_scan_per_line_kind(monkeypatch,
                                                          oracle_w64):
    # with the line by line reader gone, the writer's text of a generated
    # design with decoys, of a trojaned one (island tags) and of that one
    # with attributes and two tags on each island cell still parses
    def refused(text):
        raise AssertionError("read line by line")

    netlist, truth = oracle_w64
    result = RepqcResult(frozenset(truth.all_state_ffs()),
                         truth.all_input_ffs(), None, "grouped")
    trojaned, _ = insert_hth(netlist, result, HthSpec(t=16, l=16))
    assert any(c.tags for c in trojaned.cells)
    attributed = replace(
        trojaned, attributes={"design": "keccak", "w": "64"},
        cells=[Cell(c.kind, c.name, dict(c.pins), c.tags | {"spare"})
               if c.tags else c for c in trojaned.cells])
    monkeypatch.setattr(netlist_module, "_line_parts", refused)
    for n in (netlist, trojaned, attributed):
        assert parse_netlist(write_netlist(n)) == n
    with pytest.raises(AssertionError, match="read line by line"):
        parse_netlist("# a comment\n" + write_netlist(netlist))


def test_the_writers_form_keeps_one_string_per_cell_kind(oracle_w64):
    # each cell takes its kind from the line table, not from a slice of
    # its own line
    netlist, _ = oracle_w64
    cells = parse_netlist(write_netlist(netlist)).cells
    kinds = {c.kind for c in cells}
    assert len({id(c.kind) for c in cells}) == len(kinds) > 1


def _replaced(tok, i, item):
    return [*tok[:i], item, *tok[i + 1:]]


def _inserted(tok, rng, item):
    at = rng.randint(3, len(tok))
    return [*tok[:at], item, *tok[at:]]


# cell line tokens (cell, kind, name, pins...), i the index of one pin ->
# the tokens of a line the parser must reject as the reference does
CELL_LINE_MUTATIONS = {
    "double_equals": lambda tok, i, rng: _replaced(tok, i, tok[i].replace("=", "==")),
    "no_net": lambda tok, i, rng: _replaced(tok, i, tok[i].split("=")[0] + "="),
    "no_pin": lambda tok, i, rng: _replaced(tok, i, "=" + tok[i].split("=")[1]),
    "two_equals": lambda tok, i, rng: _replaced(tok, i, tok[i] + "=x"),
    "no_equals": lambda tok, i, rng: _replaced(tok, i, tok[i].replace("=", "")),
    "pin_bound_twice": lambda tok, i, rng: _inserted(tok, rng, tok[i]),
    "unknown_kind": lambda tok, i, rng: _replaced(tok, 1, "FOO2"),
    "missing_pin": lambda tok, i, rng: tok[:i] + tok[i + 1:],
    "extra_pin": lambda tok, i, rng: _inserted(tok, rng, "zz=pi"),
    "bad_cell_name": lambda tok, i, rng: _replaced(tok, 2, tok[2] + "$"),
    "bad_net": lambda tok, i, rng: _replaced(tok, i, tok[i] + "$"),
}


@pytest.mark.parametrize("mutation", sorted(CELL_LINE_MUTATIONS))
@given(seed=st.integers(min_value=0, max_value=10_000), scramble=st.booleans())
@settings(max_examples=30, deadline=None)
def test_parse_errors_match_the_reference(mutation, seed, scramble):
    rng = random.Random(seed)
    n = _random_netlist(rng)
    lines = _cell_lines(n, rng, scramble)
    at = rng.randrange(len(lines))
    tok = lines[at].split("#")[0].split()
    pins = [i for i, t in enumerate(tok) if i >= 3 and not t.startswith("tag=")]
    if mutation == "missing_pin":   # a DFF without its rst is whole
        pins = [i for i in pins if not tok[i].startswith("rst=")]
    lines[at] = " ".join(CELL_LINE_MUTATIONS[mutation](tok, rng.choice(pins), rng))
    text = _text(n, lines, rng)
    outcome = _outcome(parse_netlist, text)
    assert isinstance(outcome, tuple), lines[at]
    assert outcome == _outcome(_reference_parse, text)


@pytest.mark.parametrize("kind, bound", [
    pytest.param(kind, optional, id="+".join((kind, *optional)))
    for kind, spec in CELL_KINDS.items()
    for optional in [(), *[(pin,) for pin in spec.optional]]])
def test_cell_nets_follow_the_table(kind, bound):
    spec = CELL_KINDS[kind]
    order = (*spec.inputs, *bound, spec.output)
    pins = {pin: f"n_{pin}" for pin in reversed(order)}
    cell = Cell(kind, "u", pins)
    assert cell.nets == tuple(f"n_{pin}" for pin in order)
    assert dict(cell.pins) == pins and tuple(cell.pins) == order
    assert not hasattr(cell, "__dict__")
    with pytest.raises(TypeError):
        cell.pins[spec.output] = "n"
    assert cell == Cell(kind, "u", dict(zip(order, cell.nets)))


def _driver_faults(rng, n):
    """The ports, nets and cells of n after zero to three random driver
    faults: a second driver of one of its nets, a cell driving an input
    port, or a cell dropped, which leaves its net undriven."""
    cells = list(n.cells)
    for k in range(rng.randint(0, 3)):
        fault = rng.choice(["second", "input", "dropped"])
        if fault == "dropped" and cells:
            cells.remove(rng.choice(cells))
        elif fault != "dropped":
            net = rng.choice(n.nets if fault == "second" else n.input_ports())
            extra = (Cell("BUF", f"x{k}", {"a": "pi", "y": net})
                     if rng.random() < 0.5 else Cell("TIE0", f"x{k}", {"y": net}))
            cells.insert(rng.randint(0, len(cells)), extra)
    return n.ports, n.nets, cells


def _first_driver_fault(ports, nets, cells):
    """Reference: the first declared net that is not driven exactly once,
    and the cell that drives it a second time, counted net by net; None
    if every net has one driver."""
    for net in [p.name for p in ports] + list(nets):
        drivers = [p.name for p in ports if p.name == net and p.direction == "in"]
        drivers += [c.name for c in cells if c.nets[-1] == net]
        if len(drivers) != 1:
            return net, drivers[1] if drivers else None
    return None


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_construction_finds_the_driver_faults_a_per_net_loop_finds(seed):
    rng = random.Random(seed)
    ports, nets, cells = _driver_faults(rng, _random_netlist(rng))
    fault = _first_driver_fault(ports, nets, cells)
    if fault is None:
        Netlist("rnd", ports=ports, nets=nets, cells=cells)
        return
    net, second = fault
    with pytest.raises(DeclarationError) as e:
        Netlist("rnd", ports=ports, nets=nets, cells=cells)
    assert (e.value.net, e.value.cell) == (net, second)
    # the same netlist as text: write_netlist reads only these fields
    text = write_netlist(SimpleNamespace(name="rnd", ports=ports, nets=nets,
                                         cells=cells, attributes={}))
    if second is None:   # an undriven net: its declaration
        def at(tok):
            return tok[0] in ("input", "output", "net") and tok[1] == net
    else:                # a net driven twice: its second driver
        def at(tok):
            return tok[0] == "cell" and tok[2] == second
    line = next(i for i, raw in enumerate(text.splitlines(), start=1)
                if at(raw.split()))
    with pytest.raises(NetlistSyntaxError) as e:
        parse_netlist(text)
    assert e.value.line == line
    assert f"net {net!r} driven" in str(e.value)


def _sequential_fault(ports, nets, cells):
    """Reference: the DeclarationError of a netlist's first fault, found
    by one pass over the names in the order they are given, then net by
    net over the drivers; None if there is none."""
    all_nets = [p.name for p in ports] + list(nets)
    declared = set()
    for net in all_nets:
        if net in declared:
            return DeclarationError(f"net {net!r} declared twice", net=net)
        declared.add(net)
    names = set()
    for c in cells:
        if c.name in names:
            return DeclarationError(f"cell {c.name!r} declared twice",
                                    cell=c.name)
        names.add(c.name)
        for net in c.nets:
            if net not in declared:
                return DeclarationError(
                    f"cell {c.name!r} uses undeclared net {net!r}",
                    net=net, cell=c.name)
    fault = _first_driver_fault(ports, nets, cells)
    if fault is None:
        return None
    net, second = fault
    if second is None:
        return DeclarationError(f"net {net!r} driven by nothing", net=net)
    inputs = [p.name for p in ports if p.direction == "in"]
    first = ("its input port" if net in inputs else
             f"cell {next(c.name for c in cells if c.nets[-1] == net)!r}")
    return DeclarationError(f"net {net!r} driven twice, by {first} and cell "
                            f"{second!r}", net=net, cell=second)


def _plant(fault, rng, ports, nets, cells, k):
    """``fault`` planted once into the lists of a netlist, at random."""
    def at(seq):
        return rng.randint(0, len(seq))

    all_nets = [p.name for p in ports] + nets
    if fault == "net_declared_twice":
        net = rng.choice(all_nets)
        if rng.random() < 0.5:
            nets.insert(at(nets), net)
        else:
            ports.insert(at(ports), Port(net, rng.choice(["in", "out"])))
    elif fault == "cell_name_twice" and cells:
        # the copy may read an undeclared net too: one cell with both
        # faults, which tells the order of the two per-cell checks
        nets.append(f"e{k}")
        cells.insert(at(cells), Cell("BUF", rng.choice(cells).name,
                                     {"a": rng.choice(["pi", f"ghost{k}"]),
                                      "y": f"e{k}"}))
    elif fault == "undeclared_pin" and cells:
        i = rng.randrange(len(cells))
        c = cells[i]
        pins = dict(c.pins)
        pins[rng.choice(list(pins))] = f"ghost{k}"
        cells[i] = Cell(c.kind, c.name, pins, c.tags)
    elif fault == "driven_twice":
        cells.insert(at(cells), Cell("TIE0", f"x{k}",
                                     {"y": rng.choice(all_nets)}))
    elif fault == "drives_an_input":
        cells.insert(at(cells), Cell("BUF", f"x{k}",
                                     {"a": "pi", "y": rng.choice(["pi", "clk"])}))
    elif fault == "driven_by_nothing":
        if cells and rng.random() < 0.5:
            cells.pop(rng.randrange(len(cells)))
        else:
            nets.insert(at(nets), f"u{k}")


DECLARATION_FAULTS = ["net_declared_twice", "cell_name_twice", "undeclared_pin",
                      "driven_twice", "drives_an_input", "driven_by_nothing"]


@given(seed=st.integers(min_value=0, max_value=10_000),
       faults=st.lists(st.sampled_from(DECLARATION_FAULTS), max_size=2))
@settings(max_examples=300, deadline=None)
def test_the_bulk_declaration_check_finds_the_first_fault_of_one_pass(seed,
                                                                     faults):
    # whole-set checks decide whether a netlist has a fault, and only then
    # does Netlist look for the first; its error must be the one a single
    # sequential pass raises, class, message, net and cell alike
    rng = random.Random(seed)
    n = _random_netlist(rng)
    ports, nets, cells = list(n.ports), list(n.nets), list(n.cells)
    for k, fault in enumerate(faults):
        _plant(fault, rng, ports, nets, cells, k)
    expected = _sequential_fault(ports, nets, cells)
    assert faults or expected is None
    if expected is None:
        Netlist("rnd", ports=ports, nets=nets, cells=cells)
        return
    with pytest.raises(DeclarationError) as e:
        Netlist("rnd", ports=ports, nets=nets, cells=cells)
    assert ((type(e.value), str(e.value), e.value.net, e.value.cell)
            == (type(expected), str(expected), expected.net, expected.cell))


def _crlf_with_comments(text):
    lines = text.splitlines()
    return "\r\n".join(["# a comment line",
                         *(f"{line}  # line {i}" if i % 2 else line
                           for i, line in enumerate(lines, start=1))]) + "\r\n"


def _trojaned(netlist, truth):
    result = RepqcResult(frozenset(truth.all_state_ffs()),
                         truth.all_input_ffs(), None, "grouped")
    return insert_hth(netlist, result, HthSpec(t=16, l=16))[0]


# each way this package makes a netlist, from the w = 64 oracle; the CRLF
# copy with comments is read line by line
NETLIST_PATHS = {
    "generate_accelerator": lambda n, truth: n,
    "writer_form_parse": lambda n, truth: parse_netlist(write_netlist(n)),
    "line_parse": lambda n, truth: parse_netlist(
        _crlf_with_comments(write_netlist(n))),
    "anonymize": lambda n, truth: anonymize(n, 5)[0],
    "insert_hth": _trojaned,
}


@pytest.mark.parametrize("path", sorted(NETLIST_PATHS))
def test_a_netlist_holds_one_string_per_net_name(path, oracle_w64):
    # every pin and every declaration of a net share one string object
    n = NETLIST_PATHS[path](*oracle_w64)
    names = n.all_nets()
    assert len({id(net) for c in n.cells for net in c.nets}
               | {id(net) for net in names}) == len(names)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_index_orders_every_comb_cell_after_its_drivers(seed):
    _check_order_and_levels(_random_netlist(random.Random(seed)))


def _check_order_and_levels(n):
    """The ``levels``, concatenated, hold every non-island combinational
    cell once, after the drivers of its inputs; each input of a level-L
    cell is driven by a lower level or by no ordered cell, and each cell
    at L >= 1 reads a level-(L - 1) cell. Returns the index."""
    index = index_netlist(n)
    driver = {c.nets[-1]: c for c in n.cells}
    order = [c for level in index.levels for c in level]
    position = {c.name: i for i, c in enumerate(order)}
    comb = [c for c in n.cells
            if not c.is_seq() and ANALOG_ISLAND_TAG not in c.tags]
    assert len(order) == len(position) == len(comb)
    assert set(position) == {c.name for c in comb}
    for c in order:
        for net in c.nets[:-1]:
            d = driver.get(net)
            if d is not None and d.name in position:
                assert position[d.name] < position[c.name]
    depth = {c.name: level for level, cells in enumerate(index.levels)
             for c in cells}
    for level, cells in enumerate(index.levels):
        for c in cells:
            read = {depth[d.name] for net in c.nets[:-1]
                    if (d := driver.get(net)) is not None
                    and d.name in depth}
            assert all(r < level for r in read)
            assert level == 0 or level - 1 in read
    return index


def test_index_levels_of_a_generated_design(oracle_w8):
    index = _check_order_and_levels(oracle_w8[0])
    assert len(index.levels) >= 10


# longest paths from a port, a flip-flop, an island net or nothing (TIE1)
LEVELS = """\
module lv
input a
input clk
output y
net n1
net n2
net n3
net n4
net q
net t
net r
cell TIE1 t1 y=t
cell INV i1 a=a y=n1
cell NAND2 osc a=n3 b=q y=r tag=analog_island
cell DFF f1 d=n3 clk=clk q=q
cell AND2 g1 a=n1 b=q y=n2
cell OR2 g3 a=t b=r y=n4
cell XOR2 g2 a=n2 b=n1 y=n3
cell MUX2 m1 a=n3 b=a s=n4 y=y
endmodule
"""


def test_index_levels_of_a_hand_built_design():
    index = _check_order_and_levels(parse_netlist(LEVELS))
    assert [sorted(c.name for c in cells) for cells in index.levels] == [
        ["i1", "t1"], ["g1", "g3"], ["g2"], ["m1"]]


@pytest.mark.parametrize("seed", [1, 2, 17])
def test_anonymize_deterministic(seed):
    n = parse_netlist(INV_DFF)
    b1, m1 = anonymize(n, seed)
    b2, m2 = anonymize(n, seed)
    assert write_netlist(b1) == write_netlist(b2)
    assert m1 == m2


def test_anonymize_isomorphic_with_witness():
    n = parse_netlist(INV_DFF)
    blind, rename = anonymize(n, 1)
    # the rename map is an isomorphism witness: remapping the original
    # must reproduce the blind netlist cell for cell
    remapped = {(c.kind, rename[c.name],
                 tuple(sorted((p, rename[net]) for p, net in c.pins.items())))
                for c in n.cells}
    got = {(c.kind, c.name, tuple(sorted(c.pins.items()))) for c in blind.cells}
    assert remapped == got
    assert sorted(rename[x] for x in n.all_nets()) == sorted(blind.all_nets())


def test_anonymize_different_seeds_differ():
    n = parse_netlist(INV_DFF)
    b1, _ = anonymize(n, 1)
    b2, _ = anonymize(n, 2)
    assert write_netlist(b1) != write_netlist(b2)


def test_anonymize_drops_module_attributes():
    # an attribute names the design as plainly as a port name does
    n = parse_netlist(INV_DFF.replace("endmodule", "attr vendor acme_sha3_v2\n"
                                                   "endmodule"))
    assert dict(n.attributes) == {"vendor": "acme_sha3_v2"}
    blind, _ = anonymize(n, 1)
    assert dict(blind.attributes) == {}
    assert not [line for line in write_netlist(blind).splitlines()
                if line.startswith("attr")]


def test_anonymize_remaps_sidecar_ids(oracle_w8):
    netlist, truth = oracle_w8
    blind, rename = anonymize(netlist, 9)
    names = {c.name for c in blind.cells}
    remapped = truth.remap(rename)
    assert all(f in names for f in remapped.all_state_ffs())
    assert all(f in names for f in remapped.all_input_ffs())
