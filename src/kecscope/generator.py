"""Keccak accelerator netlist generator and ground-truth sidecar.

The generated design is one admissible iterative implementation per
instance: a 25*w-bit state register (per share) with one-round
combinational feedback, a w-bit input register absorbed into lane (0, 0),
a round counter that selects the iota constants, a two-state loader FSM
and a lane readout register. Decoy logic (pipelines, counters, LFSRs,
small FSMs) pads the design to the requested flip-flop budget. As in a
synthesized netlist, every cell has a path to a primary output and no
MUX2 chooses between two copies of one net.

One round builder serves every share count: chi gives share i the output
b_i(x) ^ XOR_j (n_i & b_j(x+2)), with n_0 = ~b_0(x+1) and n_i = b_i(x+1)
otherwise, which is plain chi for one share. The readout XORs the shares.

Protocol: while idle the input register follows data_in every cycle.
Pulsing start for one cycle absorbs the held word into lane (0, 0) fused
with round 0, then rounds 1..12+2l-1 run back to back; busy is high
throughout. data_out continuously shows the lane selected by the readout
counter, which advances on squeeze_next.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace

from . import keccak
from .netlist import Cell, Netlist, Port

DECOY_KIND_WEIGHTS = (("pipeline", 40), ("counter", 30), ("lfsr", 20), ("fsm", 10))


@dataclass(frozen=True)
class GenConfig:
    w: int = 64
    instances: int = 1
    shares: int = 1
    decoy_ffs: int = 0
    seed: int = 0
    loader: str = "absorb"   # "absorb" | "split" (two loader paths)

    def __post_init__(self):
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


def id_list(value):
    """An id list read from a JSON record, checked: anything but a list of
    strings raises ValueError."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"not a list of ids: {value!r:.60}")
    return value


@dataclass
class InstanceTruth:
    state_ffs: list[str]      # share-major; within a share (x + 5y)*w + z
    input_ffs: list[str]      # bit z at index z


@dataclass
class GroundTruth:
    """Sidecar labeling, never embedded in the blind netlist: what the
    generator built, nothing an analysis derives. ``from_json`` ignores
    unknown keys, which older sidecars carry."""

    lane_width: int
    shares: int
    instances: list[InstanceTruth]
    decoy_ffs: list[str] = field(default_factory=list)
    control_ffs: list[str] = field(default_factory=list)

    def all_state_ffs(self):
        return [f for inst in self.instances for f in inst.state_ffs]

    def all_input_ffs(self):
        return [f for inst in self.instances for f in inst.input_ffs]

    def to_json(self):
        return json.dumps(asdict(self), indent=1)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(
            lane_width=d["lane_width"],
            shares=d.get("shares", 1),
            instances=[InstanceTruth(id_list(i["state_ffs"]),
                                     id_list(i["input_ffs"]))
                       for i in d["instances"]],
            decoy_ffs=id_list(d.get("decoy_ffs", [])),
            control_ffs=id_list(d.get("control_ffs", [])),
        )

    def remap(self, rename):
        def ids(ffs):
            return [rename[f] for f in ffs]
        instances = [InstanceTruth(ids(i.state_ffs), ids(i.input_ffs))
                     for i in self.instances]
        return replace(self, instances=instances, decoy_ffs=ids(self.decoy_ffs),
                       control_ffs=ids(self.control_ffs))


class Builder:
    """Incremental netlist builder with shared TIE cells and gate helpers.

    ``base`` is the name of a new netlist, or a netlist to add to, whose
    cells the result shares; generated names are uniquified against
    everything already present. :meth:`netlist` hands over what is built.
    A call that raises keeps what its arguments allocated before it: in
    ``b.cell("FOO", "u", y=b.net())`` the net stays, with no driver, so
    :meth:`netlist` then raises DeclarationError.
    """

    def __init__(self, base, auto_prefix=""):
        self.base = Netlist(base) if isinstance(base, str) else base
        self.ports = list(self.base.ports)
        self.nets = list(self.base.nets)
        self.cells = list(self.base.cells)
        self._auto = 0
        self._tie = {}
        self.auto_prefix = auto_prefix
        self._used_nets = set(self.base.all_nets())
        self._used_cells = {c.name for c in self.cells}

    def netlist(self) -> Netlist:
        return replace(self.base, ports=self.ports, nets=self.nets,
                       cells=self.cells)

    def port_in(self, name):
        self.ports.append(Port(name, "in"))
        self._used_nets.add(name)
        return name

    def port_out(self, name):
        self.ports.append(Port(name, "out"))
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
        self.nets.append(name)
        return name

    def _append(self, kind, name, pins, tags=frozenset()):
        # untagged cells share tags: each frozenset(()) is a new object;
        # every caller passes pins in table order, which Cell checks in one
        # lookup
        if name in self._used_cells:
            raise ValueError(f"cell {name!r} already exists")
        self.cells.append(Cell(kind, name, pins, tags))
        self._used_cells.add(name)
        return name

    def cell(self, kind, name, tags=(), **pins):
        return self._append(kind, name, pins, frozenset(tags))

    def _gate(self, kind, prefix, **pins):
        out = self.net()
        while f"{prefix}g{self._auto}" in self._used_cells:
            self._auto += 1
        name = f"{prefix}g{self._auto}"
        self._auto += 1
        self._append(kind, name, {**pins, "y": out})
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
        self._append("DFF", name, {"d": d, "clk": clk, "q": q} if rst is None
                     else {"d": d, "clk": clk, "rst": rst, "q": q})
        return q

    def mux_n(self, inputs, sel, prefix=""):
        """Binary mux tree over the ``inputs`` nets indexed by the sel nets
        (LSB first). A slot past the inputs reads TIE0, and a subtree whose
        two halves are one net is that net: a tree over TIE nets folds to
        them, and no mux chooses between two copies of one net.
        The recursion is a method, not a closure that calls itself: such a
        closure is a reference cycle that would hold the builder and all
        it has built until the cyclic collector ran."""
        return self._mux_tree(list(inputs), sel, 0, prefix)

    def _mux_tree(self, nets, sels, slot, prefix):
        if not sels:
            return nets[slot] if slot < len(nets) else self.tie(0, prefix)
        lo = self._mux_tree(nets, sels[:-1], slot, prefix)
        hi = self._mux_tree(nets, sels[:-1], slot + (1 << len(sels) - 1),
                            prefix)
        return lo if lo == hi else self.mux2(lo, hi, sels[-1], prefix)


def _incrementer(b, bits, prefix):
    """The next-value nets of value+1 over q nets, LSB first. No carry
    leaves the last bit, since nothing would read it."""
    out = [b.inv(bits[0], prefix)]
    carry = bits[0]
    for q in bits[1:]:
        out.append(b.xor2(q, carry, prefix))
        if len(out) < len(bits):
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


def _round(b, pre, sins, w, counter, rcs):
    """One combinational round over any number of shares.

    sins holds one (x, y, z) -> net map per share. Theta, rho and pi run
    per share. Chi is out_i = b_i(x) ^ XOR_j (n_i & q_j), where
    n_0 = ~b_0(x+1), n_i = b_i(x+1) for i > 0 and q_j = b_j(x+2): share i
    reads its own share at dx = 0, 1 and every share at dx = 2, and for one
    share this is plain chi. Iota XORs the constant of ``rcs`` selected by
    the counter value nets into share 0; an empty counter with one constant
    is a fixed iota. Returns one next-state map per share.
    """
    bs = [_linear_layer(b, f"{pre}s{s}_", sin, w) for s, sin in enumerate(sins)]
    # stable chi gate names, which named designs and their tests rely on
    p = f"{pre}s0_" if len(sins) == 1 else f"{pre}chi_"
    outs = [{} for _ in sins]
    for x in range(5):
        for y in range(5):
            for z in range(w):
                ns = [b.inv(bs[0]((x + 1) % 5, y, z), p)]
                ns += [bi((x + 1) % 5, y, z) for bi in bs[1:]]
                qs = [bi((x + 2) % 5, y, z) for bi in bs]
                gs = [b.xor_tree([b.and2(n, q, p) for q in qs], p) for n in ns]
                for out, bi, g in zip(outs, bs, gs):
                    out[(x, y, z)] = b.xor2(bi(x, y, z), g, p)
    p = f"{pre}s0_"
    for z in range(w):
        bits = [(rc >> z) & 1 for rc in rcs]
        if any(bits):
            rc_net = b.mux_n([b.tie(bit, p) for bit in bits], counter, p)
            outs[0][(0, 0, z)] = b.xor2(outs[0][(0, 0, z)], rc_net, p)
    return outs


def _state_register(b, pre, w, pad):
    """Flip-flop names and declared q nets of one share's 25*w-bit state
    register, both keyed (x, y, z); the caller adds the flip-flops once
    the round that feeds them exists."""
    names = {(x, y, z): f"{pre}x{x}y{y}z{z:0{pad}d}"
             for x in range(5) for y in range(5) for z in range(w)}
    return names, {k: b.net(f"{ff}_q") for k, ff in names.items()}


def _sidecar_order(names, w):
    """The state flip-flops of the per-share name maps in sidecar order:
    share-major, then (x + 5y)*w + z within a share."""
    return [share[(x, y, z)] for share in names for y in range(5)
            for x in range(5) for z in range(w)]


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
    names, state_q = zip(*(_state_register(b, f"{pre}st{s}_", w, pw)
                           for s in range(cfg.shares)))
    sins = [dict(qs) for qs in state_q]
    for z in range(w):
        gated = b.and2(absorb_q, inq[z], pre)
        sins[0][(0, 0, z)] = b.xor2(state_q[0][(0, 0, z)], gated, pre)
    nxt = _round(b, pre, sins, w, counter_q, keccak.round_constants(w))
    for share, qs, nx in zip(names, state_q, nxt):
        for k, ff in share.items():
            b.dff(ff, b.mux2(qs[k], nx[k], update, pre), q=qs[k], rst=rst)

    # readout: data_out shows the lane picked by a small select counter;
    # this is also what guarantees every state bit a sink beyond the round
    ls_q = [b.net(f"{pre}ls{i}_q") for i in range(5)]
    ls_inc = _incrementer(b, ls_q, pre)
    for i in range(5):
        b.dff(f"{pre}ls{i}", b.mux2(ls_q[i], ls_inc[i], squeeze, pre),
              q=ls_q[i], rst=rst)
    control += [f"{pre}ls{i}" for i in range(5)]
    for z in range(w):
        picks = [b.mux_n([qs[(x, y, z)] for y in range(5) for x in range(5)],
                         ls_q, pre) for qs in state_q]
        b.dff(f"{pre}out{z:0{pw}d}", b.xor_tree(picks, pre), q=data_out[z],
              rst=rst)
    control += [f"{pre}out{z:0{pw}d}" for z in range(w)]

    return InstanceTruth(_sidecar_order(names, w), input_ffs), control


def _build_decoys(b, cfg):
    """Seeded filler logic: pipeline words, counters, LFSRs and one-hot
    rings. Each kind bounds the sequential fanin of its flip-flops by its
    width: at most 1 for a pipeline stage, 2 for an LFSR bit, 8 for a ring
    bit and 16 for a counter bit, all below the smallest fanin floor of
    any lane width (25, at w = 1), so no decoy enters a state window."""
    if cfg.decoy_ffs == 0:
        return []
    rng = random.Random(cfg.seed)
    n_in = 8
    dec_in = [b.port_in(f"dec_in{i}") for i in range(n_in)]
    outs = []
    first = len(b.cells)
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
                carry = b.and2(carry, qs[i], pre)
            remaining -= width
            outs.append(carry)
        elif kind == "lfsr":
            width = min(remaining, rng.randint(8, 32))
            qs = [b.net(f"{pre}l{i}_q") for i in range(width)]
            tap = rng.randrange(max(1, width - 1))
            gate = b.and2(qs[tap], dec_in[rng.randrange(n_in)], pre)
            b.dff(f"{pre}l0", b.xor2(qs[width - 1], gate, pre), q=qs[0])
            for i in range(1, width):
                b.dff(f"{pre}l{i}", qs[i - 1], q=qs[i])
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
            remaining -= width
            outs.append(qs[width - 1])
    n_out = min(32, len(outs))
    buckets = [[] for _ in range(n_out)]
    for i, net in enumerate(outs):
        buckets[i % n_out].append(net)
    for i, bucket in enumerate(buckets):
        po = b.port_out(f"dec_out{i}")
        b.cell("BUF", f"decpo{i}", a=b.xor_tree(bucket, "decpo_"), y=po)
    return [c.name for c in b.cells[first:] if c.kind == "DFF"]


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
    generator runs none of the analysis it is the ground truth for; no
    decoy flip-flop can land inside a state window by construction (see
    ``_build_decoys``).
    """
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
    return b.netlist(), GroundTruth(cfg.w, cfg.shares, instances, decoys,
                                    control)


def generate_core(w: int) -> tuple[Netlist, GroundTruth]:
    """Round logic alone: state flip-flops directly fed by one fixed-iota
    round, no loader, hold path or readout. This is the netlist whose
    state bits exhibit the bare structural fanin of the permutation."""
    rcs = keccak.round_constants(w)[:1]
    b = Builder(f"keccak_core_w{w}")
    b.port_in("clk")
    names, state_q = _state_register(b, "k0_st0_", w, 1)
    nxt, = _round(b, "k0_", [state_q], w, [], rcs)
    for k, ff in names.items():
        b.dff(ff, nxt[k], q=state_q[k])
    gt = GroundTruth(w, 1, [InstanceTruth(_sidecar_order([names], w), [])])
    return b.netlist(), gt


def state_bit_index(x, y, z, w):
    """Flat index of a[x][y][z] inside one share block of state_ffs."""
    return (x + 5 * y) * w + z
