"""Gate-level netlist IR: parsing, writing, validation, anonymization.

The netlist is a flat, single-module, bit-level structural description with a
closed 12-kind cell vocabulary. It is the one representation every analysis
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
once, either by an input port or by one cell output pin.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

ID_RE = re.compile(r"^[A-Za-z0-9_\[\]]+$")

ANALOG_ISLAND_TAG = "analog_island"


class CellKind(NamedTuple):
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    # combinational value of the single output from (lane mask, *inputs),
    # every value a bit-parallel int over the lanes; None for DFF
    fn: Callable[..., int] | None


# The cell semantics: pins and evaluation per kind. DFF is the only
# sequential kind; its rst pin is optional and sampled synchronously
# (active high, clears to 0).
CELL_KINDS: dict[str, CellKind] = {
    "INV": CellKind(("a",), ("y",), lambda m, a: ~a & m),
    "BUF": CellKind(("a",), ("y",), lambda m, a: a),
    "AND2": CellKind(("a", "b"), ("y",), lambda m, a, b: a & b),
    "OR2": CellKind(("a", "b"), ("y",), lambda m, a, b: a | b),
    "XOR2": CellKind(("a", "b"), ("y",), lambda m, a, b: a ^ b),
    "XNOR2": CellKind(("a", "b"), ("y",), lambda m, a, b: ~(a ^ b) & m),
    "NAND2": CellKind(("a", "b"), ("y",), lambda m, a, b: ~(a & b) & m),
    "NOR2": CellKind(("a", "b"), ("y",), lambda m, a, b: ~(a | b) & m),
    # y = s ? b : a
    "MUX2": CellKind(("a", "b", "s"), ("y",),
                     lambda m, a, b, s: (a & ~s | b & s) & m),
    # sel = s1s0
    "MUX4": CellKind(("a", "b", "c", "d", "s0", "s1"), ("y",),
                     lambda m, a, b, c, d, s0, s1:
                     ((a & ~s1 & ~s0) | (b & ~s1 & s0)
                      | (c & s1 & ~s0) | (d & s1 & s0)) & m),
    "DFF": CellKind(("d", "clk"), ("q",), None),
    "TIE0": CellKind((), ("y",), lambda m: 0),
    "TIE1": CellKind((), ("y",), lambda m: m),
}

SEQUENTIAL_KINDS = frozenset({"DFF"})
DFF_OPTIONAL_PINS = frozenset({"rst"})


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


class UndrivenNetError(NetlistError):
    pass


class MultiplyDrivenNetError(NetlistError):
    pass


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # "in" | "out"


@dataclass
class Cell:
    kind: str
    name: str
    pins: dict[str, str]            # pin -> net
    tags: frozenset[str] = frozenset()

    def is_seq(self):
        return self.kind in SEQUENTIAL_KINDS

    def output_nets(self):
        return [self.pins[p] for p in CELL_KINDS[self.kind].outputs]

    def input_pins(self):
        """(pin, net) pairs for every bound input pin, optional ones included."""
        outs = CELL_KINDS[self.kind].outputs
        return [(p, n) for p, n in self.pins.items() if p not in outs]


@dataclass
class Netlist:
    name: str
    ports: list[Port] = field(default_factory=list)
    nets: list[str] = field(default_factory=list)   # internal nets only
    cells: list[Cell] = field(default_factory=list)
    attributes: dict[str, str] = field(default_factory=dict)

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


def _check_cell(kind, name, pins):
    if kind not in CELL_KINDS:
        raise UnknownCellKindError(f"unknown cell kind {kind!r} for cell {name!r}")
    required = set(CELL_KINDS[kind].inputs) | set(CELL_KINDS[kind].outputs)
    optional = DFF_OPTIONAL_PINS if kind == "DFF" else frozenset()
    bound = set(pins)
    missing = required - bound
    extra = bound - required - optional
    if missing or extra:
        raise ArityMismatchError(
            f"cell {name!r} ({kind}): "
            + (f"missing pins {sorted(missing)} " if missing else "")
            + (f"unexpected pins {sorted(extra)}" if extra else "")
        )


@dataclass
class NetlistIndex:
    """The structural view of one netlist that validation, dependency
    extraction and simulation share, built by :func:`index_netlist`.

    The one island rule: cells tagged ``analog_island`` are never ordered,
    so their outputs, like flip-flop outputs and primary inputs, cut every
    combinational path. A loop through at least one island cell is
    therefore no cycle; a loop with none leaves its cells, and every cell
    downstream of it, in ``cyclic``.

    The index is a snapshot: build a fresh one after editing the netlist.
    """

    driver: dict[str, Cell]          # net -> driving cell; input ports absent
    clashes: dict[str, list[str]]    # net -> all its drivers, if more than one
    order: list[Cell]                # non-island combinational cells, each
                                     # after the drivers of its inputs
    cyclic: list[Cell]               # non-island combinational cells left over


def index_netlist(netlist: Netlist) -> NetlistIndex:
    """Driver map and Kahn elimination over the combinational cells.

    Cells of unknown kind and unbound output pins are skipped, so a
    malformed netlist still indexes and ``validate`` can report it.
    """
    pis = set(netlist.input_ports())
    driver: dict[str, Cell] = {}
    clashes: dict[str, list[str]] = {}
    comb = []
    for c in netlist.cells:
        spec = CELL_KINDS.get(c.kind)
        if spec is None:
            continue
        for pin in spec.outputs:
            net = c.pins.get(pin)
            if net is None:
                continue
            if net in driver or net in pis:
                if net not in clashes:
                    clashes[net] = ([f"input port {net}"] if net in pis
                                    else [f"cell {driver[net].name}"])
                clashes[net].append(f"cell {c.name}")
            driver[net] = c
        if c.kind not in SEQUENTIAL_KINDS and ANALOG_ISLAND_TAG not in c.tags:
            comb.append(c)

    slot = {id(c): i for i, c in enumerate(comb)}
    indeg = [0] * len(comb)
    fanout: list[list[int]] = [[] for _ in comb]
    for i, c in enumerate(comb):
        outs = CELL_KINDS[c.kind].outputs
        for pin, net in c.pins.items():
            if pin in outs:
                continue
            j = slot.get(id(driver.get(net)))   # id(None) is no slot
            if j is not None:
                indeg[i] += 1
                fanout[j].append(i)
    order = [i for i, n in enumerate(indeg) if n == 0]
    for i in order:   # grows while it is walked
        for k in fanout[i]:
            indeg[k] -= 1
            if indeg[k] == 0:
                order.append(k)
    return NetlistIndex(driver, clashes, [comb[i] for i in order],
                        [c for c, n in zip(comb, indeg) if n])


def parse_netlist(text: str) -> Netlist:
    """Parse netlist source text into the IR.

    Raises a distinct error for each failure class: syntax, unknown cell
    kind, arity mismatch, undriven net, multiply-driven net.
    """
    netlist = None
    closed = False
    declared: set[str] = set()
    names: set[str] = set()

    def declare(net, lineno):
        if not ID_RE.match(net):
            raise NetlistSyntaxError(f"bad identifier {net!r}", lineno)
        if net in declared:
            raise NetlistSyntaxError(f"net {net!r} declared twice", lineno)
        declared.add(net)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kw = tok[0]
        if kw == "module":
            if netlist is not None:
                raise NetlistSyntaxError("duplicate module line", lineno)
            if len(tok) != 2 or not ID_RE.match(tok[1]):
                raise NetlistSyntaxError("expected: module NAME", lineno)
            netlist = Netlist(name=tok[1])
            continue
        if netlist is None:
            raise NetlistSyntaxError("statement before module line", lineno)
        if closed:
            raise NetlistSyntaxError("statement after endmodule", lineno)
        if kw in ("input", "output"):
            if len(tok) != 2:
                raise NetlistSyntaxError(f"expected: {kw} NET", lineno)
            declare(tok[1], lineno)
            netlist.ports.append(Port(tok[1], "in" if kw == "input" else "out"))
        elif kw == "net":
            if len(tok) != 2:
                raise NetlistSyntaxError("expected: net NET", lineno)
            declare(tok[1], lineno)
            netlist.nets.append(tok[1])
        elif kw == "attr":
            if len(tok) != 3:
                raise NetlistSyntaxError("expected: attr KEY VALUE", lineno)
            netlist.attributes[tok[1]] = tok[2]
        elif kw == "cell":
            if len(tok) < 3:
                raise NetlistSyntaxError("expected: cell KIND ID PIN=NET ...", lineno)
            kind, name = tok[1], tok[2]
            if not ID_RE.match(name):
                raise NetlistSyntaxError(f"bad identifier {name!r}", lineno)
            if name in names:
                raise NetlistSyntaxError(f"cell {name!r} declared twice", lineno)
            names.add(name)
            pins: dict[str, str] = {}
            tags = set()
            for item in tok[3:]:
                if "=" not in item:
                    raise NetlistSyntaxError(f"expected PIN=NET, got {item!r}", lineno)
                pin, net = item.split("=", 1)
                if pin == "tag":
                    tags.add(net)
                    continue
                if not ID_RE.match(net):
                    raise NetlistSyntaxError(f"bad identifier {net!r}", lineno)
                if pin in pins:
                    raise NetlistSyntaxError(f"pin {pin!r} bound twice", lineno)
                if net not in declared:
                    raise NetlistSyntaxError(f"net {net!r} not declared", lineno)
                pins[pin] = net
            _check_cell(kind, name, pins)
            netlist.cells.append(Cell(kind, name, pins, frozenset(tags)))
        elif kw == "endmodule":
            closed = True
        else:
            raise NetlistSyntaxError(f"unknown keyword {kw!r}", lineno)

    if netlist is None:
        raise NetlistSyntaxError("no module found")
    if not closed:
        raise NetlistSyntaxError("missing endmodule")
    index = index_netlist(netlist)
    for net, got in index.clashes.items():
        raise MultiplyDrivenNetError(f"net {net!r} driven by {', '.join(got)}")
    # a dangling never-read net parses; validate() still reports it
    pis = set(netlist.input_ports())
    for c in netlist.cells:
        for _, net in c.input_pins():
            if net not in index.driver and net not in pis:
                raise UndrivenNetError(f"net {net!r} has no driver")
    return netlist


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
        order = (list(spec.inputs) + (["rst"] if "rst" in c.pins else [])
                 + list(spec.outputs))
        pins = " ".join(f"{p}={c.pins[p]}" for p in order)
        tags = "".join(f" tag={t}" for t in sorted(c.tags))
        out.append(f"cell {c.kind} {c.name}{' ' + pins if pins else ''}{tags}")
    out.append("endmodule")
    return "\n".join(out) + "\n"


def validate(netlist: Netlist) -> list[Violation]:
    """Structural check; returns violations as data (empty list = valid).

    A combinational cycle is a violation under the one island rule of
    :class:`NetlistIndex`: island outputs cut every path, so only a loop
    without an ``analog_island`` cell on it is reported.
    """
    violations = []
    seen_cells: set[str] = set()
    declared = set(netlist.all_nets())
    for c in netlist.cells:
        if c.name in seen_cells:
            violations.append(Violation("duplicate-cell", c.name))
        seen_cells.add(c.name)
        if c.kind not in CELL_KINDS:
            violations.append(Violation("unknown-kind", f"{c.name}: {c.kind}"))
            continue
        try:
            _check_cell(c.kind, c.name, c.pins)
        except ArityMismatchError as e:
            violations.append(Violation("arity", str(e)))
            continue
        for net in c.pins.values():
            if net not in declared:
                violations.append(Violation("undeclared-net", f"{c.name}: {net}"))

    index = index_netlist(netlist)
    pis = set(netlist.input_ports())
    for net in netlist.all_nets():
        if net in index.clashes:
            violations.append(Violation("multi-driven-net",
                                        f"{net}: {index.clashes[net]}"))
        elif net not in index.driver and net not in pis:
            violations.append(Violation("undriven-net", net))
    if index.cyclic:
        violations.append(Violation(
            "combinational-cycle", ",".join(sorted(c.name for c in index.cyclic))))
    return violations


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

    net_names = [p.name for p in netlist.ports] + list(netlist.nets)
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
                    attributes=dict(netlist.attributes))
    rename = dict(net_map)
    rename.update(cell_map)
    return blind, rename


def copy_netlist(netlist: Netlist) -> Netlist:
    return Netlist(
        name=netlist.name,
        ports=list(netlist.ports),
        nets=list(netlist.nets),
        cells=[replace(c, pins=dict(c.pins)) for c in netlist.cells],
        attributes=dict(netlist.attributes),
    )
