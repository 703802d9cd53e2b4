"""The sim-batch workload: bit-parallel simulation through the Python API.

Part (a), the functional oracle: ORACLE_LANES seeded random states are
preloaded into the lanes of a blind w=64 accelerator and run through all
24 rounds; every lane must equal keccak_f. Part (b), the criterion-7
sweep: locate the input register of the named w=16 victim, insert a
16-bit trigger there and simulate all 2^16 trigger words as one batch;
exactly one word may fire, and it must be the trigger.

The victim stays named because the blind attack taps the register bits in
the wrong order (a known defect), which would make the sweep fire on a
permuted word.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from kecscope import keccak
from kecscope.generator import GenConfig, generate_accelerator
from kecscope.locate import PipelineConfig, run_pipeline
from kecscope.netlist import anonymize, write_netlist
from kecscope.sim import simulate
from kecscope.trojan import HthSpec, insert_hth

W = 64
ORACLE_GEN = GenConfig(w=W, seed=7)
ORACLE_LANES = 512
VICTIM_GEN = GenConfig(w=16, decoy_ffs=200, seed=2)
SWEEP_SPEC = HthSpec(t=16, l=16, trigger=0xBEE5, capture_delay=1)
SWEEP_LANES = 1 << 16
SWEEP_CYCLES = 12


class Untraced:
    """Stands in for a Tracer when a call is timed from outside only."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@dataclass
class Inputs:
    oracle: object          # blind accelerator netlist
    rounds: int
    init: dict
    watch: list
    oracle_stim: list
    states: list            # per lane: 25 lane words
    victim: object
    victim_truth: object
    sweep_stim: list
    files: dict             # name -> written path


def _columns(vectors: list[int], width: int) -> list[int]:
    """Transpose: bit i of vectors[lane] becomes bit lane of column i."""
    rows = [format(v, f"0{width}b")[::-1] for v in vectors]
    return [int("".join(col)[::-1], 2) for col in zip(*rows)]


def _state_vector(words) -> int:
    # flat state bit (x + 5y)*w + z is bit z of lane word x + 5y
    return sum(word << (W * i) for i, word in enumerate(words))


def build(seed: int, workdir: Path, tracer=Untraced) -> Inputs:
    """Generation, anonymization, writes and stimulus construction."""
    acc, truth = tracer.call("generator.generate", generate_accelerator,
                             ORACLE_GEN)
    blind, rename = tracer.call("netlist.anonymize", anonymize, acc, seed)
    truth = truth.remap(rename)
    victim, victim_truth = tracer.call("generator.generate",
                                       generate_accelerator, VICTIM_GEN)
    files = {}
    for name, netlist, sidecar in (("oracle", blind, truth),
                                   ("victim", victim, victim_truth)):
        path = workdir / f"{name}.nl"
        path.write_text(tracer.call("netlist.write", write_netlist, netlist))
        (workdir / f"{name}.truth.json").write_text(sidecar.to_json())
        files[name] = path

    rng = random.Random(seed)
    states = [[rng.getrandbits(W) for _ in range(25)]
              for _ in range(ORACLE_LANES)]
    state_ffs = truth.instances[0].state_ffs
    columns = _columns([_state_vector(s) for s in states], 25 * W)
    mask = (1 << ORACLE_LANES) - 1
    init = dict(zip(state_ffs, columns))
    # hold the core in its permute phase so no absorb disturbs the lanes
    init[rename["k0_ctl_permute"]] = mask
    cells = blind.cells_by_name()
    watch = [cells[f].pins["q"] for f in state_ffs]
    rounds = keccak.num_rounds(W)
    quiet = {p: 0 for p in blind.input_ports()}
    oracle_stim = [quiet] * (rounds + 1)

    # lane v of data_in0[z] carries bit z of the trigger word v
    word = {p: 0 for p in victim.input_ports()}
    for z in range(16):
        period = ("0" * (1 << z) + "1" * (1 << z))
        word[f"data_in0[{z}]"] = int(
            (period * (SWEEP_LANES >> (z + 1)))[::-1], 2)
    quiet = {p: 0 for p in victim.input_ports()}
    sweep_stim = [quiet, word] + [quiet] * (SWEEP_CYCLES - 2)
    return Inputs(blind, rounds, init, watch, oracle_stim, states, victim,
                  victim_truth, sweep_stim, files)


def expected_columns(inp: Inputs) -> list[int]:
    """keccak_f of every lane's state, transposed like the watched nets."""
    outs = [keccak.keccak_f(keccak.KeccakState(W, list(s))).lanes
            for s in inp.states]
    return _columns([_state_vector(o) for o in outs], 25 * W)


def run_op(inp: Inputs, tracer=Untraced) -> dict:
    """One op: the oracle simulate, then the sweep (locate, insert and the
    batch simulate). Returns its timings and raw outputs."""
    t0 = time.perf_counter()
    oracle = tracer.call("sim.simulate", simulate, inp.oracle, inp.oracle_stim,
                         inp.rounds + 1, watch=inp.watch, init=inp.init,
                         batch=ORACLE_LANES)
    t1 = time.perf_counter()
    result, _ = tracer.call("locate.run_pipeline", run_pipeline, inp.victim,
                            PipelineConfig(lane_width=16))
    t2 = time.perf_counter()
    trojaned, edit = tracer.call("trojan.insert", insert_hth, inp.victim,
                                 result, SWEEP_SPEC)
    sweep = tracer.call("sim.simulate", simulate, trojaned, inp.sweep_stim,
                        SWEEP_CYCLES, batch=SWEEP_LANES)
    t3 = time.perf_counter()
    return {"op_s": t3 - t0, "oracle_s": t1 - t0, "analyze_s": t2 - t1,
            "sweep_s": t3 - t1, "oracle": oracle, "result": result,
            "trojaned": trojaned, "edit": edit, "sweep": sweep}


def check_op(inp: Inputs, expected: list[int], out: dict) -> tuple[list, dict, dict]:
    """Correctness checks, quality against the victim's truth, and digests
    of the deterministic outputs."""
    failures = []
    final = out["oracle"].watches[inp.rounds]
    got = [final[net] for net in inp.watch]
    wrong = 0
    for g, e in zip(got, expected):
        wrong |= g ^ e
    if wrong:
        failures.append(f"oracle: {wrong.bit_count()} lanes differ from keccak_f")
    fired = 0
    for raw in out["sweep"].island_raw:
        if raw is not None:
            fired |= raw[0]
    if fired.bit_count() != 1 or fired.bit_length() - 1 != SWEEP_SPEC.trigger:
        failures.append(f"sweep fired on {fired.bit_count()} words, "
                        f"lowest {(fired & -fired).bit_length() - 1}")
    edit = out["edit"]
    if edit.removed_cells or edit.removed_nets:
        failures.append("insert removed victim cells or nets")

    result, truth = out["result"], inp.victim_truth
    st, ins = set(truth.all_state_ffs()), set(truth.all_input_ffs())
    got_st, got_in = set(result.state_candidates), set(result.input_candidates)
    quality = {
        "state_recall": len(st & got_st) / len(st),
        "state_precision": len(st & got_st) / len(got_st) if got_st else 0.0,
        "input_recall": len(ins & got_in) / len(ins),
        "input_precision": len(ins & got_in) / len(got_in) if got_in else 0.0,
    }
    sweep = [[f"{r[0]:x}", f"{r[1]:x}"] if r else None
             for r in out["sweep"].island_raw]
    digests = {
        "oracle_state": _sha(",".join(f"{v:x}" for v in got)),
        "sweep_result": _sha(json.dumps(
            [sorted(result.state_candidates), result.input_candidates,
             result.variant, result.winning_group])),
        "sweep_trojaned": _sha(write_netlist(out["trojaned"])),
        "sweep_island": _sha(json.dumps(sweep)),
    }
    return failures, quality, digests


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
