"""Parameterized information-leaking trojan and its additive insertion.

The trojan watches the victim's recovered hash input register through
read-only taps. A T-bit comparator against the constant trigger word
raises ``rst_local``; the control FSM then waits ``capture_delay`` cycles,
parallel-loads the L-bit shift register from the same taps (the secret
transits the same register as the trigger), and drains it two bits per
cycle into the select pins of a ring oscillator whose frequency, and
therefore power draw, tracks the drained symbol. No victim net is ever
re-driven: insertion is purely additive.

Cycle contract: if the tapped register holds the trigger during cycle c,
the register contents of cycle c + capture_delay + 1 are captured and leak
during the following L/2 cycles. A victim whose input register follows
data_in by one cycle therefore wants the secret presented on data_in
exactly capture_delay + 1 cycles after the trigger word.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .generator import Builder
from .netlist import ANALOG_ISLAND_TAG, Netlist
from .sim import ALLOWED_L
from .truth import RepqcResult

ALLOWED_T = (16, 32, 64)
PREFIX = "hth_"   # starts the name of every cell and net an insertion adds


class InsertionError(Exception):
    pass


@dataclass(frozen=True)
class HthSpec:
    t: int = 64
    l: int = 64
    trigger: int = 0
    capture_delay: int = 2
    k_offset: int = 0   # which register bit the leaked window starts at

    def __post_init__(self):
        if self.t not in ALLOWED_T:
            raise ValueError(f"trigger width {self.t} not in {ALLOWED_T}")
        if self.l not in ALLOWED_L:
            raise ValueError(f"shift register width {self.l} not in {ALLOWED_L}")
        if self.capture_delay < 0:
            raise ValueError("capture_delay must be >= 0")
        if self.trigger < 0 or self.trigger >> self.t:
            raise ValueError(f"trigger does not fit in {self.t} bits")
        if self.k_offset < 0:
            raise ValueError("k_offset must be >= 0")

    def leak_cycles(self):
        return self.l // 2


@dataclass
class EcoEdit:
    """Audit record of one insertion; removals are empty by construction."""

    added_cells: list[str]
    added_nets: list[str]
    tapped_nets: list[str]
    removed_cells: list[str] = field(default_factory=list)
    removed_nets: list[str] = field(default_factory=list)

    def to_json(self):
        return json.dumps(asdict(self), indent=1)


def _emit_hth(b, spec, tap_m, tap_k, clk, rst):
    """Add the trojan to ``b``; every name it adds starts with PREFIX."""
    p = PREFIX
    ff = {"clk": clk, "rst": rst}

    def dff(name, d, q=None):
        return b.dff(f"{p}{name}", d, q=q, **ff)

    # comparator: T XNOR bits against the constant trigger, AND-reduced
    bits = [b.xnor2(tap_m[i], b.tie((spec.trigger >> i) & 1, p), p)
            for i in range(spec.t)]
    match = b.and_tree(bits, p)
    rst_local = b.net(f"{p}rst_local")
    b.cell("BUF", f"{p}match_buf", a=match, y=rst_local)

    # control FSM, one-hot with implicit idle so reset lands in idle
    armed_q = b.net(f"{p}fsm_armed_q") if spec.capture_delay > 0 else None
    capture_q = b.net(f"{p}fsm_capture_q")
    leak_q = b.net(f"{p}fsm_leak_q")
    active = [n for n in (armed_q, capture_q, leak_q) if n is not None]
    idle = b.inv(b.or_tree(active, p), p)
    launch = b.and2(idle, rst_local, p)

    if spec.capture_delay > 0:
        _, cd_done = b.count_to(f"{p}cd", armed_q, spec.capture_delay - 1, p, **ff)
        b.phase(f"{p}fsm_armed", armed_q, launch, cd_done, p, **ff)
        dff("fsm_capture", b.and2(armed_q, cd_done, p), q=capture_q)
    else:
        dff("fsm_capture", launch, q=capture_q)
    _, lk_done = b.count_to(f"{p}lk", leak_q, spec.leak_cycles() - 1, p, **ff)
    b.phase(f"{p}fsm_leak", leak_q, capture_q, lk_done, p, **ff)

    # L-bit shift register: parallel load from the taps while capturing,
    # drain 2 bits/cycle while leaking
    sr_q = [b.net(f"{p}sr{i}_q") for i in range(spec.l)]
    zero = b.tie(0, p)
    for i in range(spec.l):
        # drain towards the top read port: bit i takes bit i-2, zeros enter
        shifted = sr_q[i - 2] if i >= 2 else zero
        held = b.mux2(sr_q[i], shifted, leak_q, p)
        dff(f"sr{i}", b.mux2(held, tap_k[i], capture_q, p), q=sr_q[i])
    leak1, leak0 = sr_q[spec.l - 1], sr_q[spec.l - 2]

    # ring oscillator island: NAND + 4 INV + 4 BUF + MUX4 closing the loop
    tag = (ANALOG_ISLAND_TAG,)
    fb = b.net(f"{p}ro_fb")
    n1 = b.net(f"{p}ro_n1")
    b.cell("NAND2", f"{p}ro_nand", tags=tag, a=fb, b=leak_q, y=n1)
    stage = n1
    for i in range(4):
        nxt = b.net(f"{p}ro_i{i}")
        b.cell("INV", f"{p}ro_inv{i}", tags=tag, a=stage, y=nxt)
        stage = nxt
    branches = []
    for i in range(4):
        out = b.net(f"{p}ro_b{i}")
        b.cell("BUF", f"{p}ro_buf{i}", tags=tag, a=stage, y=out)
        branches.append(out)
    b.cell("MUX4", f"{p}ro_mux", tags=tag,
           a=branches[0], b=branches[1], c=branches[2], d=branches[3],
           s0=leak0, s1=leak1, y=fb)


def insert_hth(victim: Netlist, result: RepqcResult, spec: HthSpec,
               reset_net: str | None = None) -> tuple[Netlist, EcoEdit]:
    """ECO-style insertion at the located input register.

    Comparator taps the T lowest-index located flip-flops; the shift
    register taps L of them starting at k_offset (leaking a window of a
    wider secret); the clock is shared with the victim. Each of the
    max(T, k_offset + L) located flip-flops it attaches to must be a
    victim flip-flop named once, all on one clock. Only new cells and
    nets are added: the trojaned netlist shares the victim's cells, and
    the victim stays as it was. Without a reset_net the trojan relies on the power-on
    all-zero state instead of the global reset.
    """
    needed = max(spec.t, spec.k_offset + spec.l)
    if len(result.input_candidates) < needed:
        raise InsertionError(
            f"need {needed} located flip-flops, "
            f"have {len(result.input_candidates)}")
    cells = victim.cells_by_name()
    taps = []
    clocks = set()
    seen = set()
    for ff in result.input_candidates[:needed]:
        cell = cells.get(ff)
        if cell is None or not cell.is_seq():
            raise InsertionError(f"attach point {ff!r} is not a victim flip-flop")
        if ff in seen:
            raise InsertionError(f"attach point {ff!r} is repeated")
        seen.add(ff)
        taps.append(cell.nets[-1])   # d, clk, [rst,] q
        clocks.add(cell.nets[1])
    if len(clocks) != 1:
        raise InsertionError(f"tapped flip-flops span clocks {sorted(clocks)}")
    clk = clocks.pop()

    b = Builder(victim, auto_prefix=PREFIX)
    if reset_net is None:
        rst = b.net(f"{PREFIX}rst_q")
        b.cell("TIE0", f"{PREFIX}rst_tie", y=rst)
    else:
        if reset_net not in victim.all_nets():
            raise InsertionError(f"reset net {reset_net!r} not in victim")
        rst = reset_net
    k_taps = taps[spec.k_offset:spec.k_offset + spec.l]
    _emit_hth(b, spec, taps[:spec.t], k_taps, clk, rst)
    out = b.netlist()

    # the builder only appends, so the additions are the tails
    added_cells = sorted(c.name for c in out.cells[len(victim.cells):])
    added_nets = sorted(out.nets[len(victim.nets):])
    tapped = sorted(set(taps[:spec.t]) | set(k_taps) | {clk}
                    | ({rst} if reset_net else set()))
    return out, EcoEdit(added_cells, added_nets, tapped)


def overhead_report(baseline: Netlist, trojaned: Netlist,
                    budget_pct: float | None = None) -> dict:
    """Cell-count cost of an insertion plus the fits-the-budget verdict."""
    cb, ct = baseline.cell_count(), trojaned.cell_count()
    fb, ft = len(baseline.flip_flops()), len(trojaned.flip_flops())
    delta = ct - cb
    pct = 100.0 * delta / cb if cb else 0.0
    return {
        "cells_baseline": cb,
        "cells_trojaned": ct,
        "ffs_baseline": fb,
        "ffs_trojaned": ft,
        "delta_cells": delta,
        "delta_pct": round(pct, 4),
        "budget_pct": budget_pct,
        "fits": None if budget_pct is None else pct <= budget_pct,
    }
