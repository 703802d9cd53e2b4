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
the one :class:`NetlistIndex` it caches is never stale. :func:`validate`
checks what is left, combinational cycles.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

ID_RE = re.compile(r"^[A-Za-z0-9_\[\]]+$")

ANALOG_ISLAND_TAG = "analog_island"

# the tags of every untagged cell: one shared object, not one per cell
NO_TAGS: frozenset[str] = frozenset()


class CellKind(NamedTuple):
    """One cell kind: its input pins, its one output pin, the
    combinational value of that output as a Python expression over the
    input pin names and the lane mask m, every value a bit-parallel int
    over the lanes, or None for a sequential kind, and the input pins a
    cell may leave unbound."""

    inputs: tuple[str, ...]
    output: str
    expr: str | None
    optional: tuple[str, ...] = ()


# The cell semantics: pins and evaluation per kind, read by the simulator's
# code generation and by any reference evaluator. DFF is the only
# sequential kind; its rst pin is optional and sampled synchronously
# (active high, clears to 0).
CELL_KINDS: dict[str, CellKind] = {
    "INV": CellKind(("a",), "y", "~a & m"),
    "BUF": CellKind(("a",), "y", "a"),
    "AND2": CellKind(("a", "b"), "y", "a & b"),
    "OR2": CellKind(("a", "b"), "y", "a | b"),
    "XOR2": CellKind(("a", "b"), "y", "a ^ b"),
    "XNOR2": CellKind(("a", "b"), "y", "~(a ^ b) & m"),
    "NAND2": CellKind(("a", "b"), "y", "~(a & b) & m"),
    "NOR2": CellKind(("a", "b"), "y", "~(a | b) & m"),
    # y = s ? b : a
    "MUX2": CellKind(("a", "b", "s"), "y", "(a & ~s | b & s) & m"),
    # sel = s1s0
    "MUX4": CellKind(("a", "b", "c", "d", "s0", "s1"), "y",
                     "((a & ~s1 & ~s0) | (b & ~s1 & s0)"
                     " | (c & s1 & ~s0) | (d & s1 & s0)) & m"),
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


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # "in" | "out"


@dataclass
class Cell:
    """One cell instance. Making one raises UnknownCellKindError for a
    kind outside ``CELL_KINDS`` and ArityMismatchError unless its pins are
    exactly that kind's, optional ones aside. Nothing re-checks them, and
    netlists share their cells, so code must not edit a cell."""

    kind: str
    name: str
    pins: dict[str, str]            # pin -> net
    tags: frozenset[str] = NO_TAGS

    def __post_init__(self):
        _check_cell(self.kind, self.name, self.pins)

    def is_seq(self):
        return CELL_KINDS[self.kind].expr is None

    def output_net(self):
        return self.pins[CELL_KINDS[self.kind].output]

    def input_pins(self):
        """(pin, net) pairs for every bound input pin, optional ones included."""
        out = CELL_KINDS[self.kind].output
        return [(p, n) for p, n in self.pins.items() if p != out]


@dataclass(frozen=True)
class Netlist:
    """A frozen netlist; ``ports``, ``nets`` and ``cells`` are stored as
    tuples. Making one raises DeclarationError, naming the net or cell at
    fault, unless no net is declared twice (ports and nets together), no
    cell name is used twice, every cell pin is on a declared net, and
    every net is driven exactly once: by an input port or by the output
    pin of one cell. ``driver`` maps each net a cell drives to that cell;
    ``index`` is its :class:`NetlistIndex`, built on first use from that
    map."""

    name: str
    ports: tuple[Port, ...] = ()
    nets: tuple[str, ...] = ()   # internal nets only
    cells: tuple[Cell, ...] = ()
    attributes: dict[str, str] = field(default_factory=dict)
    driver: dict[str, Cell] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("ports", "nets", "cells"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        # transient: a parsed 51k-cell netlist would carry them for good
        declared: set[str] = set()
        for net in self.all_nets():
            if net in declared:
                raise DeclarationError(f"net {net!r} declared twice", net=net)
            declared.add(net)
        names: set[str] = set()
        driver: dict[str, Cell] = {}
        for c in self.cells:
            if c.name in names:
                raise DeclarationError(f"cell {c.name!r} declared twice",
                                       cell=c.name)
            names.add(c.name)
            if not declared.issuperset(c.pins.values()):
                net = next(n for n in c.pins.values() if n not in declared)
                raise DeclarationError(
                    f"cell {c.name!r} uses undeclared net {net!r}",
                    net=net, cell=c.name)
            driver[c.pins[_OUTPUT[c.kind]]] = c
        # every driven net is declared, so each net has one driver iff no
        # two cells drive one net, no cell drives an input port, and the
        # input ports and the cells are as many as the declared nets
        inputs = self.input_ports()
        if not (len(driver) == len(self.cells)
                and len(driver) + len(inputs) == len(declared)
                and driver.keys().isdisjoint(inputs)):
            raise self._driver_fault()
        object.__setattr__(self, "driver", driver)

    def _driver_fault(self):
        """The DeclarationError of the first declared net not driven
        exactly once."""
        drivers: dict[str, list] = {net: ["its input port"]
                                    for net in self.input_ports()}
        for c in self.cells:
            drivers.setdefault(c.output_net(), []).append(c)
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
        return [c for c in self.cells if c.is_seq()]

    def cell_count(self):
        return len(self.cells)


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


# kind -> its output pin, and kind -> (required pins, allowed pins), built
# once from CELL_KINDS
_OUTPUT = {kind: spec.output for kind, spec in CELL_KINDS.items()}
_PIN_SETS = {
    kind: (frozenset((*spec.inputs, spec.output)),
           frozenset((*spec.inputs, *spec.optional, spec.output)))
    for kind, spec in CELL_KINDS.items()}


def _check_cell(kind, name, pins):
    if kind not in _PIN_SETS:
        raise UnknownCellKindError(f"unknown cell kind {kind!r} for cell {name!r}")
    required, allowed = _PIN_SETS[kind]
    bound = pins.keys()
    if required <= bound and bound <= allowed:
        return
    missing = required - bound
    extra = bound - allowed
    raise ArityMismatchError(
        f"cell {name!r} ({kind}): "
        + (f"missing pins {sorted(missing)} " if missing else "")
        + (f"unexpected pins {sorted(extra)}" if extra else "")
    )


@dataclass
class NetlistIndex:
    """The structural view of one netlist that validation, dependency
    extraction and simulation share: ``Netlist.index``, built once per
    netlist by :func:`index_netlist`. ``driver`` is the netlist's own map
    of every net a cell drives to that one cell.

    The one island rule: cells tagged ``analog_island`` are never ordered,
    so their outputs, like flip-flop outputs and primary inputs, cut every
    combinational path. A loop through at least one island cell is
    therefore no cycle; a loop with none leaves its cells, and every cell
    downstream of it, in ``cyclic``.

    ``levels`` splits the ordered cells by the longest path of ordered
    cells that ends at each: a level-0 cell reads only flip-flop, port or
    island nets (or nothing, as TIE0 and TIE1 do), and a cell at level
    L >= 1 reads only cells of lower levels, at least one at L - 1. So the
    cells of one level never read each other, and ``order``, the levels
    concatenated, is a topological order.
    """

    driver: dict[str, Cell]          # net -> driving cell; input ports absent
    levels: list[list[Cell]]         # non-island combinational cells by level
    order: list[Cell]                # the levels concatenated: each cell
                                     # after the drivers of its inputs
    cyclic: list[Cell]               # non-island combinational cells left over


def index_netlist(netlist: Netlist) -> NetlistIndex:
    """Kahn elimination over the combinational cells, one frontier (one
    level) at a time, keyed by the net each cell drives. The index adopts
    the netlist's driver map. It records cycles but raises on none:
    :func:`validate` reports them."""
    comb = [c for c in netlist.cells
            if CELL_KINDS[c.kind].expr is not None
            and ANALOG_ISLAND_TAG not in c.tags]
    # output net -> slot of its cell; a cell that reads its own output
    # finds its own slot, so it is its own predecessor and stays cyclic
    slot = {c.pins[_OUTPUT[c.kind]]: i for i, c in enumerate(comb)}
    indeg = [0] * len(comb)
    fanout: list[list[int]] = [[] for _ in comb]
    for i, c in enumerate(comb):
        out = _OUTPUT[c.kind]
        for pin, net in c.pins.items():
            if pin != out and (j := slot.get(net)) is not None:
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
    return NetlistIndex(netlist.driver, levels,
                        [c for level in levels for c in level],
                        [c for c, n in zip(comb, indeg) if n])


def parse_netlist(text: str) -> Netlist:
    """Parse netlist source text into the IR.

    Raises NetlistSyntaxError for what a line number can point at: bad
    syntax, a bad identifier, a pin bound twice, and the facts
    :class:`Netlist` checks, mapped back to their line: a net or cell
    declared twice (the second declaration), an undeclared net (the cell
    that reads it), a net driven twice (the second driver's cell line) and
    a net driven by nothing (its declaration); UnknownCellKindError and
    ArityMismatchError come from :class:`Cell`. A net may be declared
    after a cell uses it. Combinational cycles parse, and :func:`validate`
    reports them.
    """
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
        spec = CELL_KINDS[c.kind]
        order = [*spec.inputs, *(p for p in spec.optional if p in c.pins),
                 spec.output]
        pins = " ".join(f"{p}={c.pins[p]}" for p in order)
        tags = "".join(f" tag={t}" for t in sorted(c.tags))
        out.append(f"cell {c.kind} {c.name}{' ' + pins if pins else ''}{tags}")
    out.append("endmodule")
    return "\n".join(out) + "\n"


def validate(netlist: Netlist) -> list[Violation]:
    """Structural check; returns violations as data (empty list = valid).

    A :class:`Cell` checks its own kind and pins and a :class:`Netlist`
    its declarations and drivers, so one kind is left, read from
    ``netlist.index``: ``combinational-cycle``. A cycle counts under the
    one island rule of :class:`NetlistIndex`: island outputs cut every
    path, so only a loop without an ``analog_island`` cell on it is
    reported.
    """
    cyclic = netlist.index.cyclic
    return [Violation("combinational-cycle",
                      ",".join(sorted(c.name for c in cyclic)))] if cyclic else []


def anonymize(netlist: Netlist, seed: int) -> tuple[Netlist, dict[str, str]]:
    """Strip design meaning: rename every port/net/cell to an opaque id and
    permute declaration order, all deterministically from ``seed``.

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
    cells = [
        Cell(c.kind, cell_map[c.name],
             {pin: net_map[net] for pin, net in c.pins.items()}, c.tags)
        for c in netlist.cells
    ]
    rng.shuffle(cells)
    blind = Netlist(name="anon", ports=ports, nets=nets, cells=cells,
                    attributes=netlist.attributes)
    return blind, {**net_map, **cell_map}
