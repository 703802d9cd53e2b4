"""Gate-level netlist IR: parsing, writing, validation, anonymization.

The netlist is a flat, single-module, bit-level structural description with a
closed 13-kind cell vocabulary. It is the one representation every analysis
and transformation in this package consumes and produces.

Text format (line oriented, ``#`` starts a comment)::

    module NAME
    input  N           # primary input, also declares net N
    output N           # primary output, also declares net N
    net    N           # internal net
    attr   KEY VALUE   # optional module attribute
    cell   KIND ID PORT=NET ... [tag=analog_island]
    endmodule

Identifiers match ``[A-Za-z0-9_\\[\\]]+``. All nets are one bit wide; a
multi-bit port is expanded as ``name[i]``. Every net must be driven exactly
once, either by an input port or by the one output pin of a cell.

A :class:`Cell` checks its own kind and pins when it is made, and a
:class:`Netlist` its declarations and drivers, so every later stage trusts
both. A netlist is a frozen value: nothing edits it after it is made, so
the one :class:`NetlistIndex` it caches is never stale. Building that index
checks what is left: it raises CombinationalCycleError for a combinational
cycle, so ``netlist.index`` exists only for an acyclic netlist, and every
stage that reads it refuses a cycle with that one error. A cyclic netlist
still parses, writes and anonymizes, since none of them builds the index.
A cell holds its nets as one tuple in its kind's ``CELL_KINDS`` pin order,
which every stage reads by position and the writer emits. The parser
has two paths: a text exactly as the writer writes it takes one scan per
line kind over the whole text and one match per cell line, and any other
text is read line by line, each cell line pin by pin.
"""

from __future__ import annotations

import random
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

IDENTIFIER = r"[A-Za-z0-9_\[\]]+"
ID_RE = re.compile(f"^{IDENTIFIER}$")

ANALOG_ISLAND_TAG = "analog_island"

# the tags of every untagged cell: one shared object, not one per cell
NO_TAGS: frozenset[str] = frozenset()


class CellKind(NamedTuple):
    """One cell kind: its input pins, its one output pin, the
    combinational value of that output as a Python expression over the
    input pin names and the lane mask m, every value a bit-parallel int
    over the lanes, or None for a sequential kind, and the input pins a
    cell may leave unbound (no kind has more than one)."""

    inputs: tuple[str, ...]
    output: str
    expr: str | None
    optional: tuple[str, ...] = ()


# The cell semantics: pins and evaluation per kind, read by the simulator's
# code generation and by any reference evaluator. DFF is the only
# sequential kind; its rst pin is optional and sampled synchronously
# (active high, clears to 0).
# Every input value lies within the lane mask m (no bit set outside the
# lanes), and every expression keeps its value there. So x ^ m is the
# lane-wise NOT of x, and no expression needs ~ or a final & m. The
# simulator reads a select once for all the MUX2s of a level that share
# it: at 0 or m (every select at batch 1) it passes their a or b inputs
# through whole, so it evaluates the MUX2 expression only at mixed lanes.
CELL_KINDS: dict[str, CellKind] = {
    "INV": CellKind(("a",), "y", "a ^ m"),
    "BUF": CellKind(("a",), "y", "a"),
    "AND2": CellKind(("a", "b"), "y", "a & b"),
    "OR2": CellKind(("a", "b"), "y", "a | b"),
    "XOR2": CellKind(("a", "b"), "y", "a ^ b"),
    "XNOR2": CellKind(("a", "b"), "y", "a ^ b ^ m"),
    "NAND2": CellKind(("a", "b"), "y", "a & b ^ m"),
    "NOR2": CellKind(("a", "b"), "y", "(a | b) ^ m"),
    # y = s ? b : a
    "MUX2": CellKind(("a", "b", "s"), "y", "a ^ (a ^ b) & s"),
    # sel = s1s0: the MUX2 of s0 over (a, b) and over (c, d), then of s1
    "MUX4": CellKind(("a", "b", "c", "d", "s0", "s1"), "y",
                     "a ^ (a ^ b) & s0 ^ (a ^ c ^ (a ^ b ^ c ^ d) & s0) & s1"),
    "DFF": CellKind(("d", "clk"), "q", None, ("rst",)),
    "TIE0": CellKind((), "y", "0"),
    "TIE1": CellKind((), "y", "m"),
}


class NetlistError(Exception):
    """Base class for all netlist format and structure errors."""


class NetlistSyntaxError(NetlistError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class UnknownCellKindError(NetlistError):
    pass


class ArityMismatchError(NetlistError):
    pass


class DeclarationError(NetlistError):
    """A fact :class:`Netlist` checks, broken: a net or cell name declared
    twice (``net`` or ``cell`` set), a pin of ``cell`` on the undeclared
    ``net``, a ``net`` driven twice, ``cell`` its second driver, or a
    ``net`` driven by nothing."""

    def __init__(self, message, net=None, cell=None):
        self.net = net
        self.cell = cell
        super().__init__(message)


class CombinationalCycleError(NetlistError):
    """A combinational cycle, which :func:`index_netlist` refuses; the
    message is ``combinational-cycle: `` and the names of the cells left
    over, sorted and comma separated."""


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # "in" | "out"


@dataclass(init=False, slots=True)
class Cell:
    """One cell. ``Cell(kind, name, pins, tags)`` takes ``pins`` as pin ->
    net in any order and raises UnknownCellKindError for a kind outside
    ``CELL_KINDS`` and ArityMismatchError unless the pins are that kind's,
    optional ones aside. ``nets`` holds the nets in the kind's table order:
    the inputs, the optional pins bound, then the output (``nets[-1]``);
    ``pins`` is a read-only view of it. Nothing re-checks a cell, and
    netlists share their cells, so code must not edit one."""

    kind: str
    name: str
    nets: tuple[str, ...]
    tags: frozenset[str]

    def __init__(self, kind, name, pins, tags=NO_TAGS):
        self.kind, self.name, self.tags = kind, name, tags
        self.nets = (tuple(pins.values()) if (kind, *pins) in _LAYOUTS
                     else tuple([pins[p] for p in _pin_order(kind, name, pins)]))

    @property
    def pins(self):
        return MappingProxyType(dict(zip(_LAYOUTS[self.kind, len(self.nets)],
                                         self.nets)))

    def is_seq(self):
        return CELL_KINDS[self.kind].expr is None


def _cell(kind, name, nets, tags):
    """The cell :class:`Cell` makes, from nets known to fit ``kind``."""
    cell = object.__new__(Cell)
    cell.kind, cell.name, cell.nets, cell.tags = kind, name, nets, tags
    return cell


@dataclass(frozen=True)
class Netlist:
    """A frozen netlist; ``ports``, ``nets`` and ``cells`` are stored as
    tuples and ``attributes`` as a read-only copy. Making one raises
    DeclarationError, naming the net or cell at fault, unless no net is
    declared twice (ports and nets together), no cell name is used twice,
    every net of a cell is declared, and every net is driven exactly
    once: by an input port or by one cell's output, ``nets[-1]``.
    ``index`` is its :class:`NetlistIndex`, built on first use, which
    raises CombinationalCycleError for a cyclic netlist."""

    name: str
    ports: tuple[Port, ...] = ()
    nets: tuple[str, ...] = ()   # internal nets only
    cells: tuple[Cell, ...] = ()
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("ports", "nets", "cells"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "attributes",
                           MappingProxyType(dict(self.attributes)))
        # transient: a parsed 51k-cell netlist would carry them for good
        declared: set[str] = set()
        for net in self.all_nets():
            if net in declared:
                raise DeclarationError(f"net {net!r} declared twice", net=net)
            declared.add(net)
        names: set[str] = set()
        driven: set[str] = set()
        for c in self.cells:
            if c.name in names:
                raise DeclarationError(f"cell {c.name!r} declared twice",
                                       cell=c.name)
            names.add(c.name)
            if not declared.issuperset(c.nets):
                net = next(n for n in c.nets if n not in declared)
                raise DeclarationError(
                    f"cell {c.name!r} uses undeclared net {net!r}",
                    net=net, cell=c.name)
            driven.add(c.nets[-1])
        # every driven net is declared, so each net has one driver iff no
        # two cells drive one net, no cell drives an input port, and the
        # input ports and the cells are as many as the declared nets
        inputs = self.input_ports()
        if not (len(driven) == len(self.cells)
                and len(driven) + len(inputs) == len(declared)
                and driven.isdisjoint(inputs)):
            raise self._driver_fault()

    def _driver_fault(self):
        """The DeclarationError of the first declared net not driven
        exactly once."""
        drivers: dict[str, list] = {net: ["its input port"]
                                    for net in self.input_ports()}
        for c in self.cells:
            drivers.setdefault(c.nets[-1], []).append(c)
        for net in self.all_nets():
            found = drivers.get(net, [])
            if len(found) != 1:
                break
        if not found:
            return DeclarationError(f"net {net!r} driven by nothing", net=net)
        first, second = found[:2]
        if isinstance(first, Cell):
            first = f"cell {first.name!r}"
        return DeclarationError(f"net {net!r} driven twice, by {first} and "
                                f"cell {second.name!r}", net=net, cell=second.name)

    @cached_property
    def index(self) -> NetlistIndex:
        return index_netlist(self)

    def input_ports(self):
        return [p.name for p in self.ports if p.direction == "in"]

    def output_ports(self):
        return [p.name for p in self.ports if p.direction == "out"]

    def all_nets(self):
        """All net ids: port nets first (declaration order), then internal."""
        return [p.name for p in self.ports] + list(self.nets)

    def cells_by_name(self):
        return {c.name: c for c in self.cells}

    def flip_flops(self):
        # DFF is the only sequential kind
        return [c for c in self.cells if c.kind == "DFF"]

    def cell_count(self):
        return len(self.cells)


# Every pin order a cell may have: its kind's inputs, the optional pins it
# binds, its output. _LAYOUTS holds each under (kind, *pins), which checks
# kind and pins in one lookup, and under (kind, pin count), which tells the
# bound optional pins since no kind has two. By (kind, pin count), _LINES
# holds the line write_netlist writes (%s for the name and each net) and
# _LINE_MATCH the kind, as the table's one string for it, and a fullmatch
# of exactly those lines, with identifiers for the name and the nets and
# any tags after the pins, as the writer writes them; only the whole-text
# path of parse_netlist reads it, and its cells all share the kind strings.
# A net that is no identifier is never declared, so a text with one is in
# error, and the line loop reports it at its line.
_ORDERS = [(kind, (*spec.inputs, *spec.optional[:bound], spec.output))
           for kind, spec in CELL_KINDS.items()
           for bound in range(len(spec.optional) + 1)]
_LAYOUTS = {key: order for kind, order in _ORDERS
            for key in [(kind, *order), (kind, len(order))]}
_LINES = {(k, len(order)): " ".join([f"cell {k} %s", *map("{}=%s".format, order)])
          for k, order in _ORDERS}
_LINE_MATCH = {key: (key[0], re.compile(line.replace("%s", f"({IDENTIFIER})")
                                        + r"((?: tag=[^\s=]+)*)").fullmatch)
               for key, line in _LINES.items()}
# The lines of a text as write_netlist writes it, one scan per kind; each
# starts at the newline before it, so one line is at most one match.
_MODULE_LINE = re.compile(rf"module ({IDENTIFIER})\n").match
_PORT_LINES = re.compile(rf"\n(input|output) ({IDENTIFIER})(?=\n)").findall
_NET_LINES = re.compile(rf"\nnet ({IDENTIFIER})(?=\n)").findall
_ATTR_LINES = re.compile(r"\nattr (\S+) (\S+)(?=\n)").findall
_CELL_LINES = re.compile(r"\n(cell [^\n]*)").findall


def _pin_order(kind, name, pins):
    """The table order of ``pins`` if they fit ``kind``, else its error."""
    if kind not in CELL_KINDS:
        raise UnknownCellKindError(f"unknown cell kind {kind!r} for cell {name!r}")
    spec = CELL_KINDS[kind]
    missing = {*spec.inputs, spec.output} - pins.keys()
    extra = pins.keys() - {*spec.inputs, *spec.optional, spec.output}
    if missing or extra:
        raise ArityMismatchError(
            f"cell {name!r} ({kind}): "
            + (f"missing pins {sorted(missing)} " if missing else "")
            + (f"unexpected pins {sorted(extra)}" if extra else ""))
    return _LAYOUTS[kind, len(pins)]


@dataclass
class NetlistIndex:
    """The structural view of one acyclic netlist that dependency
    extraction and simulation share: ``Netlist.index``, built once per
    netlist by :func:`index_netlist`.

    The one island rule: cells tagged ``analog_island`` are never ordered,
    so their outputs, like flip-flop outputs and primary inputs, cut every
    combinational path. A loop through at least one island cell is
    therefore no cycle; a loop with none is, and the netlist has no index.

    ``levels`` splits the ordered cells by the longest path of ordered
    cells that ends at each: a level-0 cell reads only flip-flop, port or
    island nets (or nothing, as TIE0 and TIE1 do), and a cell at level
    L >= 1 reads only cells of lower levels, at least one at L - 1. So the
    cells of one level never read each other, and the levels concatenated
    are a topological order.

    ``plan`` is the simulator's plan of the netlist: None until the
    netlist's first ``simulate`` call builds it from ``levels``, then
    kept, so it lives as long as the netlist. This module never reads it
    and imports nothing of ``sim``.
    """

    levels: list[list[Cell]]         # non-island combinational cells by level
    plan: object = field(default=None, compare=False, repr=False)


def index_netlist(netlist: Netlist) -> NetlistIndex:
    """Kahn elimination over the combinational cells, one frontier (one
    level) at a time, keyed by the net each cell drives, ``nets[-1]``. It
    raises CombinationalCycleError if cells are left over: those on a loop
    that no island cell cuts, and every cell downstream of one."""
    comb = [c for c in netlist.cells
            if CELL_KINDS[c.kind].expr is not None
            and ANALOG_ISLAND_TAG not in c.tags]
    # output net -> slot of its cell; a cell that reads its own output
    # finds its own slot, so it is its own predecessor and stays cyclic
    slot = {c.nets[-1]: i for i, c in enumerate(comb)}
    indeg = [0] * len(comb)
    fanout: list[list[int]] = [[] for _ in comb]
    for i, c in enumerate(comb):
        for net in c.nets[:-1]:
            if (j := slot.get(net)) is not None:
                indeg[i] += 1
                fanout[j].append(i)
    levels = []
    frontier = [i for i, n in enumerate(indeg) if n == 0]
    while frontier:
        levels.append([comb[i] for i in frontier])
        ready = []
        for i in frontier:
            for k in fanout[i]:
                indeg[k] -= 1
                if indeg[k] == 0:
                    ready.append(k)
        frontier = ready
    if any(indeg):
        raise CombinationalCycleError("combinational-cycle: " + ",".join(
            sorted(c.name for c, n in zip(comb, indeg) if n)))
    return NetlistIndex(levels)


def parse_netlist(text: str) -> Netlist:
    """Parse netlist source text into the IR.

    Raises NetlistSyntaxError for what a line number can point at: bad
    syntax, a bad identifier, a pin bound twice, and the facts
    :class:`Netlist` checks, mapped back to their line: a net or cell
    declared twice (the second declaration), an undeclared net (the cell
    that reads it), a net driven twice (the second driver's cell line) and
    a net driven by nothing (its declaration); UnknownCellKindError and
    ArityMismatchError come from :class:`Cell`. A net may be declared
    after a cell uses it. Combinational cycles parse; the index refuses
    them. A text exactly as :func:`write_netlist` writes it is read with
    one scan per line kind over the whole text and one match per cell
    line; any other (comments, blank lines, CRLF, other spacing or pin
    order, or a line in error) is read line by line, each cell line split
    pin by pin and made by :class:`Cell`, with the same result or error.
    """
    parts = _written_parts(text) or _line_parts(text)
    try:
        return Netlist(*parts)
    except DeclarationError as e:
        raise _declaration_line(text, e) from None


def _written_parts(text):
    """The fields of the netlist of a text in write_netlist's exact form,
    else None: the module line first, endmodule last, no ``#``, and every
    line between them a port, net or attr line or a cell line of one
    match. Each scan keeps its kind's order, the one order a Netlist
    keeps; every line is one match iff the matches and the two outer
    lines are as many as the lines."""
    module = _MODULE_LINE(text)
    if module is None or "#" in text or not text.endswith("\nendmodule\n"):
        return None
    ports = _PORT_LINES(text)
    nets = _NET_LINES(text)
    attributes = _ATTR_LINES(text)
    lines = _CELL_LINES(text)
    if (len(ports) + len(nets) + len(attributes) + len(lines) + 2
            != text.count("\n")):
        return None
    cells = []
    for line in lines:
        # each tag is one "=" more, and no pin
        entry = _LINE_MATCH.get((line[5:line.find(" ", 5)],
                                 line.count("=") - line.count(" tag=")))
        if entry is None or (m := entry[1](line)) is None:
            return None
        found = m.groups()
        tags = found[-1]
        cells.append(_cell(entry[0], found[0], found[1:-1],
                           frozenset(tags[5:].split(" tag=")) if tags
                           else NO_TAGS))
    return (module[1],
            [Port(net, "in" if kw == "input" else "out") for kw, net in ports],
            nets, cells, dict(attributes))


def _line_parts(text):
    """The fields of the netlist of any text, read line by line, each
    cell line pin by pin; raises the error of its first bad line."""
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
    return name, ports, nets, cells, attributes


def _declaration_line(text, error):
    """The NetlistSyntaxError of a DeclarationError at its line: the line
    of the cell it names, else the declaration of the net it names; of two
    declarations of one name, the second. A cell that reads an undeclared
    net is reported as such, or as a bad identifier if the net is no
    identifier."""
    def lines(keywords, at, name):
        return [lineno for lineno, raw in enumerate(text.splitlines(), start=1)
                if (tok := raw.split("#", 1)[0].split())[at:at + 1] == [name]
                and tok[0] in keywords]

    net, cell = error.net, error.cell
    declarations = ("input", "output", "net")
    if cell is None:
        found = lines(declarations, 1, net)
    else:
        found = lines(("cell",), 2, cell)
        if net is not None and not lines(declarations, 1, net):
            return NetlistSyntaxError(
                f"net {net!r} not declared" if ID_RE.match(net)
                else f"bad identifier {net!r}", found[0])
    # a driver fault is found only once every name is declared once
    return NetlistSyntaxError(str(error), found[1] if len(found) > 1
                              else found[0])


def write_netlist(netlist: Netlist) -> str:
    """Serialize to text. ``parse_netlist(write_netlist(n)) == n`` exactly."""
    out = [f"module {netlist.name}"]
    for p in netlist.ports:
        out.append(f"{'input' if p.direction == 'in' else 'output'} {p.name}")
    for net in netlist.nets:
        out.append(f"net {net}")
    for k in sorted(netlist.attributes):
        out.append(f"attr {k} {netlist.attributes[k]}")
    for c in netlist.cells:
        tags = "".join([f" tag={t}" for t in sorted(c.tags)]) if c.tags else ""
        out.append(_LINES[c.kind, len(c.nets)] % (c.name, *c.nets) + tags)
    out.append("endmodule")
    return "\n".join(out) + "\n"


def validate(netlist: Netlist) -> list[CombinationalCycleError]:
    """``[error]`` if building ``netlist.index`` raises that
    CombinationalCycleError, else ``[]``. Nothing in this package calls
    it: the benchmark's replay times it as its own layer."""
    try:
        netlist.index
    except CombinationalCycleError as e:
        return [e]
    return []


def anonymize(netlist: Netlist, seed: int) -> tuple[Netlist, dict[str, str]]:
    """Strip design meaning: rename every port/net/cell to an opaque id,
    permute declaration order, all deterministically from ``seed``, and
    drop the module attributes.

    Returns the blind netlist and the old-id -> new-id rename map covering
    ports, nets and cells. The result is graph-isomorphic to the input.
    """
    rng = random.Random(seed)

    def fresh_ids(prefix, count):
        ids = [f"{prefix}{i:06d}" for i in range(count)]
        rng.shuffle(ids)
        return ids

    net_names = netlist.all_nets()
    net_map = dict(zip(net_names, fresh_ids("n", len(net_names))))
    cell_map = dict(zip((c.name for c in netlist.cells),
                        fresh_ids("u", len(netlist.cells))))

    ports = [Port(net_map[p.name], p.direction) for p in netlist.ports]
    rng.shuffle(ports)
    nets = [net_map[n] for n in netlist.nets]
    rng.shuffle(nets)
    cells = [_cell(c.kind, cell_map[c.name],
                   tuple([net_map[net] for net in c.nets]), c.tags)
             for c in netlist.cells]
    rng.shuffle(cells)
    blind = Netlist(name="anon", ports=ports, nets=nets, cells=cells)
    return blind, {**net_map, **cell_map}
