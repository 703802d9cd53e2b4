"""Keccak accelerator netlist generator and ground-truth sidecar.

The generated design is one admissible iterative implementation per
instance: a 25*w-bit state register (per share) with one-round
combinational feedback, a w-bit input register absorbed into lane (0, 0),
a round counter that selects the iota constants, a two-state loader FSM
and a lane readout register. Decoy logic (pipelines, counters, LFSRs,
small FSMs) pads the design to the requested flip-flop budget.

Protocol: while idle the input register follows data_in every cycle.
Pulsing start for one cycle absorbs the held word into lane (0, 0) fused
with round 0, then rounds 1..12+2l-1 run back to back; busy is high
throughout. data_out continuously shows the lane selected by the readout
counter, which advances on squeeze_next.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from . import keccak
from .depgraph import extract_dependencies
from .locate import naive_bounds
from .netlist import Cell, Netlist, Port

DECOY_KIND_WEIGHTS = (("pipeline", 40), ("counter", 30), ("lfsr", 20), ("fsm", 10))


@dataclass
class GenConfig:
    w: int = 64
    instances: int = 1
    shares: int = 1
    decoy_ffs: int = 0
    seed: int = 0
    loader: str = "absorb"   # "absorb" | "split" (two loader paths)

    def validate(self):
        if self.w not in keccak.LANE_WIDTHS:
            raise ValueError(f"unsupported lane width {self.w}")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        if self.shares not in (1, 2):
            raise ValueError("shares must be 1 or 2")
        if self.decoy_ffs < 0:
            raise ValueError("decoy_ffs must be >= 0")
        if self.loader not in ("absorb", "split"):
            raise ValueError(f"unknown loader {self.loader!r}")


@dataclass
class InstanceTruth:
    state_ffs: list[str]      # share-major; within a share (x + 5y)*w + z
    input_ffs: list[str]      # bit z at index z


@dataclass
class GroundTruth:
    """Sidecar labeling, never embedded in the blind netlist."""

    lane_width: int
    shares: int
    instances: list[InstanceTruth]
    decoy_ffs: list[str] = field(default_factory=list)
    control_ffs: list[str] = field(default_factory=list)
    window_collisions: list[str] = field(default_factory=list)

    def all_state_ffs(self):
        return [f for inst in self.instances for f in inst.state_ffs]

    def all_input_ffs(self):
        return [f for inst in self.instances for f in inst.input_ffs]

    def to_json(self):
        return json.dumps({
            "lane_width": self.lane_width,
            "shares": self.shares,
            "instances": [
                {"state_ffs": i.state_ffs, "input_ffs": i.input_ffs}
                for i in self.instances
            ],
            "decoy_ffs": self.decoy_ffs,
            "control_ffs": self.control_ffs,
            "window_collisions": self.window_collisions,
        }, indent=1)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(
            lane_width=d["lane_width"],
            shares=d.get("shares", 1),
            instances=[InstanceTruth(i["state_ffs"], i["input_ffs"])
                       for i in d["instances"]],
            decoy_ffs=d.get("decoy_ffs", []),
            control_ffs=d.get("control_ffs", []),
            window_collisions=d.get("window_collisions", []),
        )

    def remap(self, rename):
        return GroundTruth(
            lane_width=self.lane_width,
            shares=self.shares,
            instances=[InstanceTruth([rename[f] for f in i.state_ffs],
                                     [rename[f] for f in i.input_ffs])
                       for i in self.instances],
            decoy_ffs=[rename[f] for f in self.decoy_ffs],
            control_ffs=[rename[f] for f in self.control_ffs],
            window_collisions=[rename[f] for f in self.window_collisions],
        )


class Builder:
    """Incremental netlist builder with shared TIE cells and gate helpers.

    May wrap an existing netlist for additive edits; generated names are
    uniquified against everything already present.
    """

    def __init__(self, name, netlist=None, auto_prefix=""):
        self.n = netlist if netlist is not None else Netlist(name=name)
        self._auto = 0
        self._tie = {}
        self.auto_prefix = auto_prefix
        self._used_nets = set(self.n.all_nets())
        self._used_cells = {c.name for c in self.n.cells}

    def port_in(self, name):
        self.n.ports.append(Port(name, "in"))
        self._used_nets.add(name)
        return name

    def port_out(self, name):
        self.n.ports.append(Port(name, "out"))
        self._used_nets.add(name)
        return name

    def net(self, name=None):
        if name is None:
            while True:
                name = f"{self.auto_prefix}w{self._auto}"
                self._auto += 1
                if name not in self._used_nets:
                    break
        elif name in self._used_nets:
            raise ValueError(f"net {name!r} already exists")
        self._used_nets.add(name)
        self.n.nets.append(name)
        return name

    def cell(self, kind, name, tags=(), **pins):
        if name in self._used_cells:
            raise ValueError(f"cell {name!r} already exists")
        self._used_cells.add(name)
        self.n.cells.append(Cell(kind, name, pins, frozenset(tags)))
        return name

    def _gate(self, kind, prefix, **pins):
        out = self.net()
        while f"{prefix}g{self._auto}" in self._used_cells:
            self._auto += 1
        name = f"{prefix}g{self._auto}"
        self._auto += 1
        self.cell(kind, name, y=out, **pins)
        return out

    def inv(self, a, prefix=""):
        return self._gate("INV", prefix, a=a)

    def and2(self, a, b, prefix=""):
        return self._gate("AND2", prefix, a=a, b=b)

    def or2(self, a, b, prefix=""):
        return self._gate("OR2", prefix, a=a, b=b)

    def nor2(self, a, b, prefix=""):
        return self._gate("NOR2", prefix, a=a, b=b)

    def xor2(self, a, b, prefix=""):
        return self._gate("XOR2", prefix, a=a, b=b)

    def xnor2(self, a, b, prefix=""):
        return self._gate("XNOR2", prefix, a=a, b=b)

    def mux2(self, a, b, s, prefix=""):
        # y = s ? b : a
        return self._gate("MUX2", prefix, a=a, b=b, s=s)

    def tie(self, value, prefix=""):
        if value not in self._tie:
            out = self.net()
            self.cell("TIE1" if value else "TIE0",
                      f"{prefix}tie{value}_{self._auto}", y=out)
            self._tie[value] = out
        return self._tie[value]

    def xor_tree(self, nets, prefix=""):
        acc = nets[0]
        for x in nets[1:]:
            acc = self.xor2(acc, x, prefix)
        return acc

    def or_tree(self, nets, prefix=""):
        acc = nets[0]
        for x in nets[1:]:
            acc = self.or2(acc, x, prefix)
        return acc

    def and_tree(self, nets, prefix=""):
        # balanced so comparator depth stays logarithmic
        level = list(nets)
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(self.and2(level[i], level[i + 1], prefix))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def dff(self, name, d, q=None, clk="clk", rst=None):
        q = q if q is not None else self.net(f"{name}_q")
        pins = {"d": d, "clk": clk, "q": q}
        if rst is not None:
            pins["rst"] = rst
        self.n.cells.append(Cell("DFF", name, pins))
        return q

    def const_mux(self, values, sel, prefix=""):
        """Mux tree over constant bits indexed by the sel nets (LSB first),
        folding constant subtrees to shared TIE nets."""
        size = 1 << len(sel)
        vals = list(values) + [0] * (size - len(values))

        def build(bits, sels):
            if all(b == bits[0] for b in bits):
                return self.tie(bits[0], prefix)
            half = len(bits) // 2
            lo = build(bits[:half], sels[:-1])
            hi = build(bits[half:], sels[:-1])
            if lo == hi:
                return lo
            return self.mux2(lo, hi, sels[-1], prefix)

        return build(vals, sel)

    def mux_n(self, inputs, sel, prefix=""):
        """Binary mux tree over arbitrary nets; missing slots read TIE0."""
        size = 1 << len(sel)
        nets = list(inputs) + [self.tie(0, prefix)] * (size - len(inputs))

        def build(lst, sels):
            if len(lst) == 1:
                return lst[0]
            half = len(lst) // 2
            lo = build(lst[:half], sels[:-1])
            hi = build(lst[half:], sels[:-1])
            return self.mux2(lo, hi, sels[-1], prefix)

        return build(nets, sel)


def _incrementer(b, bits, prefix):
    """(next-value nets, carry chain) for value+1 over q nets LSB first."""
    out = []
    carry = None
    for i, q in enumerate(bits):
        if i == 0:
            out.append(b.inv(q, prefix))
            carry = q
        else:
            out.append(b.xor2(q, carry, prefix))
            carry = b.and2(carry, q, prefix)
    return out


def _equals_const(b, bits, value, prefix):
    terms = []
    for i, q in enumerate(bits):
        terms.append(q if (value >> i) & 1 else b.inv(q, prefix))
    return b.and_tree(terms, prefix)


def _linear_layer(b, p, sin, w):
    """Theta, rho and pi over the ``sin`` bit nets of one share.

    sin maps (x, y, z) -> net. Returns bnet(x, y, z), the net holding bit
    (x, y, z) of the pi output, which is what chi reads.
    """
    rho = keccak.rho_offsets()
    col = {}
    for x in range(5):
        for z in range(w):
            col[(x, z)] = b.xor_tree([sin[(x, y, z)] for y in range(5)], p)
    dnet = {}
    for x in range(5):
        for z in range(w):
            dnet[(x, z)] = b.xor2(col[((x - 1) % 5, z)],
                                  col[((x + 1) % 5, (z - 1) % w)], p)
    t1 = {}
    for x in range(5):
        for y in range(5):
            for z in range(w):
                t1[(x, y, z)] = b.xor2(sin[(x, y, z)], dnet[(x, z)], p)

    def bnet(x, y, z):
        px, py = (x + 3 * y) % 5, x
        return t1[(px, py, (z - rho[(px, py)]) % w)]

    return bnet


def _iota(b, out, w, p, counter):
    """XOR the round constant selected by the counter value nets into lane
    (0, 0) of the next-state map ``out``."""
    rcs = keccak.round_constants(w)
    for z in range(w):
        bits = [(rc >> z) & 1 for rc in rcs]
        if any(bits):
            rc_net = b.const_mux(bits, counter, p)
            out[(0, 0, z)] = b.xor2(out[(0, 0, z)], rc_net, p)


def _round_logic(b, pre, sin, w, iota_rc=None, counter=None):
    """One combinational round over the ``sin`` bit nets of share 0.

    sin maps (x, y, z) -> net. iota is either a fixed constant lane
    (iota_rc) or the full schedule selected by the counter value nets.
    Returns the (x, y, z) -> net map of next-state values.
    """
    p = f"{pre}s0_"
    bnet = _linear_layer(b, p, sin, w)
    out = {}
    for x in range(5):
        for y in range(5):
            for z in range(w):
                n = b.inv(bnet((x + 1) % 5, y, z), p)
                a = b.and2(n, bnet((x + 2) % 5, y, z), p)
                out[(x, y, z)] = b.xor2(bnet(x, y, z), a, p)

    if iota_rc is None:
        _iota(b, out, w, p, counter)
    else:
        for z in range(w):
            if (iota_rc >> z) & 1:
                out[(0, 0, z)] = b.xor2(out[(0, 0, z)], b.tie(1, p), p)
    return out


def _masked_round(b, pre, sin0, sin1, w, counter):
    """Share-correct two-share round: linear steps per share, chi via a
    four-AND cross-share gadget, iota into share 0 only."""
    b0 = _linear_layer(b, f"{pre}s0_", sin0, w)
    b1 = _linear_layer(b, f"{pre}s1_", sin1, w)
    out0, out1 = {}, {}
    p = f"{pre}chi_"
    for x in range(5):
        for y in range(5):
            for z in range(w):
                n0 = b.inv(b0((x + 1) % 5, y, z), p)
                n1 = b1((x + 1) % 5, y, z)
                q0 = b0((x + 2) % 5, y, z)
                q1 = b1((x + 2) % 5, y, z)
                g0 = b.xor2(b.and2(n0, q0, p), b.and2(n0, q1, p), p)
                g1 = b.xor2(b.and2(n1, q0, p), b.and2(n1, q1, p), p)
                out0[(x, y, z)] = b.xor2(b0(x, y, z), g0, p)
                out1[(x, y, z)] = b.xor2(b1(x, y, z), g1, p)
    _iota(b, out0, w, f"{pre}s0_", counter)
    return out0, out1


def _build_instance(b, idx, cfg, rst):
    """One accelerator instance; returns (InstanceTruth, control ff ids)."""
    w = cfg.w
    pre = f"k{idx}_"
    rounds = keccak.num_rounds(w)
    cbits = max(1, (rounds - 1).bit_length())

    pw = len(str(w - 1))

    start = b.port_in(f"start{idx}")
    squeeze = b.port_in(f"squeeze{idx}")
    busy = b.port_out(f"busy{idx}")
    data_in = [b.port_in(f"data_in{idx}[{z}]") for z in range(w)]
    data_out = [b.port_out(f"data_out{idx}[{z}]") for z in range(w)]

    # loader FSM: idle is implicit (both state bits low), so reset lands in it
    absorb_q = b.net(f"{pre}ctl_absorb_q")
    permute_q = b.net(f"{pre}ctl_permute_q")
    idle = b.nor2(absorb_q, permute_q, pre)
    b.cell("OR2", f"{pre}busy_or", a=absorb_q, b=permute_q, y=busy)
    update = busy

    counter_q = [b.net(f"{pre}rc{i}_q") for i in range(cbits)]
    inc = _incrementer(b, counter_q, pre)
    for i in range(cbits):
        b.dff(f"{pre}rc{i}", b.and2(update, inc[i], pre), q=counter_q[i], rst=rst)
    done = _equals_const(b, counter_q, rounds - 1, pre)

    b.dff(f"{pre}ctl_absorb", b.and2(idle, start, pre), q=absorb_q, rst=rst)
    b.dff(f"{pre}ctl_permute",
          b.or2(absorb_q, b.and2(permute_q, b.inv(done, pre), pre), pre),
          q=permute_q, rst=rst)
    control = [f"{pre}rc{i}" for i in range(cbits)]
    control += [f"{pre}ctl_absorb", f"{pre}ctl_permute"]

    # input register: follows data_in while idle, holds otherwise
    split_at = w // 2 if cfg.loader == "split" else w
    input_ffs = []
    inq = []
    for z in range(w):
        if z < split_at:
            src = data_in[z]
        else:
            src = b.dff(f"{pre}stg{z:0{pw}d}", data_in[z])
        q = b.net(f"{pre}in{z:0{pw}d}_q")
        b.dff(f"{pre}in{z:0{pw}d}", b.mux2(q, src, idle, pre), q=q, rst=rst)
        input_ffs.append(f"{pre}in{z:0{pw}d}")
        inq.append(q)

    # state registers, absorb fused into the round input of lane (0, 0)
    state_q = []
    for s in range(cfg.shares):
        qs = {}
        for x in range(5):
            for y in range(5):
                for z in range(w):
                    qs[(x, y, z)] = b.net(f"{pre}st{s}_x{x}y{y}z{z:0{pw}d}_q")
        state_q.append(qs)

    def absorbed(share):
        sin = dict(state_q[share])
        if share == 0:
            for z in range(w):
                gated = b.and2(absorb_q, inq[z], pre)
                sin[(0, 0, z)] = b.xor2(state_q[0][(0, 0, z)], gated, pre)
        return sin

    if cfg.shares == 1:
        nxt = [_round_logic(b, pre, absorbed(0), w, counter=counter_q)]
    else:
        nxt = list(_masked_round(b, pre, absorbed(0), absorbed(1), w, counter_q))

    ordered = []
    for s in range(cfg.shares):
        for x in range(5):
            for y in range(5):
                for z in range(w):
                    ff = f"{pre}st{s}_x{x}y{y}z{z:0{pw}d}"
                    d = b.mux2(state_q[s][(x, y, z)], nxt[s][(x, y, z)],
                               update, pre)
                    b.dff(ff, d, q=state_q[s][(x, y, z)], rst=rst)
        # sidecar order is share-major, then (x + 5y)*w + z within a share
        for y in range(5):
            for x in range(5):
                for z in range(w):
                    ordered.append(f"{pre}st{s}_x{x}y{y}z{z:0{pw}d}")

    # readout: data_out shows the lane picked by a small select counter;
    # this is also what guarantees every state bit a sink beyond the round
    ls_q = [b.net(f"{pre}ls{i}_q") for i in range(5)]
    ls_inc = _incrementer(b, ls_q, pre)
    for i in range(5):
        b.dff(f"{pre}ls{i}", b.mux2(ls_q[i], ls_inc[i], squeeze, pre),
              q=ls_q[i], rst=rst)
    control += [f"{pre}ls{i}" for i in range(5)]
    for z in range(w):
        picks = []
        for s in range(cfg.shares):
            lanes = [state_q[s][(x, y, z)] for y in range(5) for x in range(5)]
            picks.append(b.mux_n(lanes, ls_q, pre))
        word = picks[0] if len(picks) == 1 else b.xor2(picks[0], picks[1], pre)
        b.dff(f"{pre}out{z:0{pw}d}", word, q=data_out[z], rst=rst)
    control += [f"{pre}out{z:0{pw}d}" for z in range(w)]

    return InstanceTruth(ordered, input_ffs), control


def _build_decoys(b, cfg):
    """Seeded filler logic: pipeline words, counters, LFSRs and one-hot
    rings, none of which can reach the state-candidate degree windows."""
    if cfg.decoy_ffs == 0:
        return []
    rng = random.Random(cfg.seed)
    n_in = 8
    dec_in = [b.port_in(f"dec_in{i}") for i in range(n_in)]
    outs = []
    ffs = []
    remaining = cfg.decoy_ffs
    sid = 0
    while remaining > 0:
        kind = _pick_kind(rng)
        pre = f"dec{sid}_"
        sid += 1
        if kind == "pipeline":
            width = rng.choice((4, 8, 16, 32))
            depth = rng.randint(2, 6)
            if width * depth > remaining:
                depth = max(1, min(depth, remaining))
                width = max(1, remaining // depth)
            last = []
            for i in range(width):
                q = dec_in[rng.randrange(n_in)]
                for j in range(depth):
                    ffs.append(f"{pre}p{i}_{j}")
                    q = b.dff(f"{pre}p{i}_{j}", q)
                last.append(q)
            remaining -= width * depth
            outs.append(b.xor_tree(last, pre))
        elif kind == "counter":
            width = min(remaining, rng.randint(4, 16))
            qs = [b.net(f"{pre}c{i}_q") for i in range(width)]
            en = dec_in[rng.randrange(n_in)]
            carry = en
            for i in range(width):
                b.dff(f"{pre}c{i}", b.xor2(qs[i], carry, pre), q=qs[i])
                ffs.append(f"{pre}c{i}")
                carry = b.and2(carry, qs[i], pre)
            remaining -= width
            outs.append(carry)
        elif kind == "lfsr":
            width = min(remaining, rng.randint(8, 32))
            qs = [b.net(f"{pre}l{i}_q") for i in range(width)]
            tap = rng.randrange(max(1, width - 1))
            gate = b.and2(qs[tap], dec_in[rng.randrange(n_in)], pre)
            b.dff(f"{pre}l0", b.xor2(qs[width - 1], gate, pre), q=qs[0])
            ffs.append(f"{pre}l0")
            for i in range(1, width):
                b.dff(f"{pre}l{i}", qs[i - 1], q=qs[i])
                ffs.append(f"{pre}l{i}")
            remaining -= width
            outs.append(qs[width - 1])
        else:  # fsm ring
            width = min(remaining, rng.randint(3, 8))
            qs = [b.net(f"{pre}f{i}_q") for i in range(width)]
            adv = dec_in[rng.randrange(n_in)]
            regen = b.inv(b.or_tree(qs, pre), pre) if width > 1 else b.inv(qs[0], pre)
            for i in range(width):
                nxt = b.or2(regen, qs[-1], pre) if i == 0 else qs[i - 1]
                b.dff(f"{pre}f{i}", b.mux2(qs[i], nxt, adv, pre), q=qs[i])
                ffs.append(f"{pre}f{i}")
            remaining -= width
            outs.append(qs[width - 1])
    n_out = min(32, len(outs))
    buckets = [[] for _ in range(n_out)]
    for i, net in enumerate(outs):
        buckets[i % n_out].append(net)
    for i, bucket in enumerate(buckets):
        po = b.port_out(f"dec_out{i}")
        b.cell("BUF", f"decpo{i}", a=b.xor_tree(bucket, "decpo_"), y=po)
    return ffs


def _pick_kind(rng):
    total = sum(wgt for _, wgt in DECOY_KIND_WEIGHTS)
    roll = rng.randrange(total)
    acc = 0
    for kind, wgt in DECOY_KIND_WEIGHTS:
        acc += wgt
        if roll < acc:
            return kind
    return "pipeline"


def generate_accelerator(cfg: GenConfig) -> tuple[Netlist, GroundTruth]:
    """Build the victim design plus its labeling sidecar.

    Deterministic: identical cfg produces identical netlist text. The
    sidecar records any decoy flip-flop that lands inside the naive state
    window so a lucky collision can never silently fake a result.
    """
    cfg.validate()
    b = Builder(f"keccak_accel_w{cfg.w}")
    b.port_in("clk")
    rst = b.port_in("rst")
    instances = []
    control = []
    for i in range(cfg.instances):
        truth, ctl = _build_instance(b, i, cfg, rst)
        instances.append(truth)
        control.extend(ctl)
    decoys = _build_decoys(b, cfg)
    gt = GroundTruth(cfg.w, cfg.shares, instances, decoys, control)
    gt.window_collisions = _window_collisions(b.n, gt)
    return b.n, gt


def _window_collisions(netlist, gt):
    graph = extract_dependencies(netlist)
    nb = naive_bounds(gt.lane_width)
    labeled = set(gt.all_state_ffs())
    return sorted(
        f for f in gt.decoy_ffs
        if f not in labeled
        and graph.fanin(f) >= nb.fif and graph.fanout(f) >= nb.fof)


def generate_core(w: int) -> tuple[Netlist, GroundTruth]:
    """Round logic alone: state flip-flops directly fed by one fixed-iota
    round, no loader, hold path or readout. This is the netlist whose
    state bits exhibit the bare structural fanin of the permutation."""
    if w not in keccak.LANE_WIDTHS:
        raise ValueError(f"unsupported lane width {w}")
    b = Builder(f"keccak_core_w{w}")
    b.port_in("clk")
    pre = "k0_"
    state_q = {}
    for x in range(5):
        for y in range(5):
            for z in range(w):
                state_q[(x, y, z)] = b.net(f"{pre}st0_x{x}y{y}z{z}_q")
    nxt = _round_logic(b, pre, state_q, w,
                       iota_rc=keccak.round_constants(w)[0])
    ordered = []
    for x in range(5):
        for y in range(5):
            for z in range(w):
                b.dff(f"{pre}st0_x{x}y{y}z{z}", nxt[(x, y, z)],
                      q=state_q[(x, y, z)])
    for y in range(5):
        for x in range(5):
            for z in range(w):
                ordered.append(f"{pre}st0_x{x}y{y}z{z}")
    gt = GroundTruth(w, 1, [InstanceTruth(ordered, [])])
    return b.n, gt


def state_bit_index(x, y, z, w):
    """Flat index of a[x][y][z] inside one share block of state_ffs."""
    return (x + 5 * y) * w + z
