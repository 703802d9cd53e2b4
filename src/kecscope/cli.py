"""Command-line front end: generate, analyze, inject, simulate.

Exit codes, chosen in ``main`` from one table (``FAILURES``): 0 success;
2 usage error (bad flag or config value, a file that cannot be read or
written, a stimulus the design cannot run); 3 not found (no Keccak state or
input register, a trojan that does not fit the register or the budget); 4
a netlist that does not parse, or whose index refuses a combinational
cycle. Other exceptions are defects.

Every command runs in this process, but for one part: ``simulate
--baseline`` forks one child, where a second CPU and no other thread
allow it, to decide the structural stealth verdict (``sim.extends``)
while this process simulates. Its exit code is the verdict, 0 iff
``extends`` holds; any other sends the baseline to the simulated check,
which ``extends`` implies, with no second ``extends``. The child writes
no file and prints nothing, and it is reaped before the command returns
or raises, so no process outlives ``main``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import sys
import time
from functools import cache
from pathlib import Path

from . import sim
from .keccak import LANE_WIDTHS
from .netlist import anonymize, parse_netlist, write_netlist

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3
EXIT_INVALID = 4

# The entry points that live outside netlist, by the module that holds
# each. A command imports the rest of what it runs inside its function, so
# it compiles only the modules it uses; these four are loaded on first use
# by the module __getattr__ below (PEP 562) and stay attributes of this
# module. Commands call them through _cli, so a wrapper set on the module
# (a tracer, a test) is the one called.
_ENTRY_POINTS = {"generate_accelerator": "generator", "run_pipeline": "locate",
                 "insert_hth": "trojan", "overhead_report": "trojan"}
_cli = sys.modules[__name__]


def __getattr__(name):
    if name not in _ENTRY_POINTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_ENTRY_POINTS[name]}", __package__)
    globals()[name] = getattr(module, name)
    return globals()[name]


def _outdir(args):
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read(path, what, parse=str):
    """parse(text of the file); one that cannot be read or parsed is a
    usage error."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ValueError(f"cannot read {what} file {path}: {e}")


def _load_netlist(path):
    """The parsed netlist, its index built: the one index every later
    stage reads, which raises CombinationalCycleError for a cycle before
    any stage runs."""
    netlist = parse_netlist(_read(path, "netlist"))
    netlist.index
    return netlist


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _budget(text):
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text}")
    return value


def _hex(text):
    """A hex number, checked and kept as the text itself, so that a
    ``--config`` string parses back to its own value."""
    try:
        int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a hex number: {text!r}")
    return text


def _bounds_to_json(b):
    def enc(v):
        return None if v == math.inf else v
    return {"fif": b.fif, "fic": enc(b.fic), "fof": b.fof, "foc": enc(b.foc)}


def cmd_gen(args):
    from .generator import GenConfig

    if args.seed is None:
        raise ValueError("gen needs --seed (or a seed in --config)")
    cfg = GenConfig(w=args.w, instances=args.instances, shares=args.shares,
                    decoy_ffs=args.decoys, seed=args.seed, loader=args.loader)
    netlist, truth = _cli.generate_accelerator(cfg)
    if args.anonymize_seed is not None:
        netlist, rename = anonymize(netlist, args.anonymize_seed)
        truth = truth.remap(rename)
    out = _outdir(args)
    (out / "design.nl").write_text(write_netlist(netlist))
    (out / "design.truth.json").write_text(truth.to_json())
    if args.anonymize_seed is not None:
        (out / "design.rename.json").write_text(json.dumps(rename, indent=1))
    print(f"wrote {out / 'design.nl'} "
          f"({netlist.cell_count()} cells, {len(netlist.flip_flops())} ffs)")
    return EXIT_OK


def cmd_analyze(args):
    from . import depgraph, grouping, scoring
    from .locate import PipelineConfig, SearchBounds
    from .truth import GroundTruth, KeccakNotPresentError

    netlist = _load_netlist(args.netlist)
    truth = None
    if args.sidecar:
        truth = _read(args.sidecar, "sidecar", GroundTruth.from_json)
    override = None
    if any(v is not None for v in (args.fif, args.fic, args.fof, args.foc)):
        if args.fif is None or args.fof is None:
            raise ValueError("bound overrides need at least --fif and --fof")
        override = SearchBounds(
            args.fif, args.fic if args.fic is not None else math.inf,
            args.fof, args.foc if args.foc is not None else math.inf)
    config = PipelineConfig(lane_width=args.lane_width, instances=args.instances,
                            shares=args.shares, bounds_override=override)
    t0 = time.perf_counter()
    result, stage_ms = _cli.run_pipeline(netlist, config)
    total_ms = (time.perf_counter() - t0) * 1e3

    report = {
        "report_type": "analyze",
        "netlist": str(args.netlist),
        "lane_width": args.lane_width,
        "variant": result.variant,
        "found": result.found(),
        "bounds": _bounds_to_json(result.bounds),
        "expected_state_count": result.expected_state_count,
        "state_candidates": sorted(result.state_candidates),
        "input_candidates": result.input_candidates,
        "winning_group": result.winning_group,
        "stage_ms": {k: round(v, 3) for k, v in stage_ms.items()},
        "total_ms": round(total_ms, 3),
    }
    if truth is not None:
        st, ins = set(truth.all_state_ffs()), set(truth.all_input_ffs())
        got_st, got_in = set(result.state_candidates), set(result.input_candidates)
        report["truth"] = {
            "state_summary": f"{len(got_st)}/{len(st)}",
            "state_recall": len(st & got_st) / len(st) if st else 1.0,
            "state_precision": len(st & got_st) / len(got_st) if got_st else 0.0,
            "input_recall": len(ins & got_in) / len(ins) if ins else 1.0,
            "input_precision": (len(ins & got_in) / len(got_in)) if got_in else 0.0,
        }
        print(f"state candidates/actual: {report['truth']['state_summary']}")
    out = _outdir(args)
    (out / "report.json").write_text(json.dumps(report, indent=1))
    # the CSVs come from the same analysis as the report
    analysis = result.analysis
    graph = analysis.graph
    (out / "scores.csv").write_text(scoring.dump_scores(analysis.scores, graph))
    (out / "degrees.csv").write_text(depgraph.dump_degrees(graph))
    (out / "groups.csv").write_text(grouping.dump_groups(analysis.groups, graph))
    print(f"wrote {out / 'report.json'} (variant {result.variant}, "
          f"{len(result.input_candidates)} input candidates)")
    if not result.found():
        raise KeccakNotPresentError("no input register located")
    return EXIT_OK


def cmd_inject(args):
    from .trojan import HthSpec
    from .truth import KeccakNotPresentError, RepqcResult, id_list

    netlist = _load_netlist(args.netlist)
    spec = HthSpec(t=args.t, l=args.l, trigger=int(args.trigger_hex, 16),
                   capture_delay=args.capture_delay, k_offset=args.k_offset)
    if args.result:
        def from_report(text):
            rep = json.loads(text)
            return RepqcResult(
                frozenset(id_list(rep["state_candidates"])),
                id_list(rep["input_candidates"]),
                rep.get("winning_group"), rep.get("variant", "grouped"),
                rep.get("expected_state_count"))
        result = _read(args.result, "result", from_report)
    else:
        from .locate import PipelineConfig

        result, _ = _cli.run_pipeline(netlist, PipelineConfig(
            lane_width=args.lane_width, instances=args.instances,
            shares=args.shares))
    if not result.found():
        raise KeccakNotPresentError("no input register located")
    trojaned, edit = _cli.insert_hth(netlist, result, spec,
                                     reset_net=args.reset_net)
    overhead = _cli.overhead_report(netlist, trojaned,
                                    budget_pct=args.budget_pct)
    report = {
        "report_type": "inject",
        "netlist": str(args.netlist),
        "trojan": {"t": spec.t, "l": spec.l, "trigger_hex": f"{spec.trigger:x}",
                   "capture_delay": spec.capture_delay},
        "audit": {
            "added_cells": len(edit.added_cells),
            "added_nets": len(edit.added_nets),
            "tapped_nets": edit.tapped_nets,
            "removed_cells": len(edit.removed_cells),
            "removed_nets": len(edit.removed_nets),
        },
        "overhead": overhead,
    }
    out = _outdir(args)
    (out / "trojaned.nl").write_text(write_netlist(trojaned))
    (out / "eco_audit.json").write_text(edit.to_json())
    (out / "inject_report.json").write_text(json.dumps(report, indent=1))
    print(f"wrote {out / 'trojaned.nl'} (+{overhead['delta_cells']} cells, "
          f"{overhead['delta_pct']}%)")
    if overhead["fits"] is False:
        print(f"does not fit: {overhead['delta_pct']}% over "
              f"{args.budget_pct}% budget", file=sys.stderr)
        return EXIT_NOT_FOUND
    return EXIT_OK


def _fork_extends(netlist, path):
    """Start ``sim.extends(netlist, baseline)``, the baseline read from
    ``path``, in a forked child and return its pid, or None where no
    child can run beside this process: no ``os.fork`` or
    ``os.sched_getaffinity``, one CPU to run on, or a thread besides this
    one, as /proc/self/task counts them, or no such count (a fork copies
    only the calling thread, and Python 3.12 warns of it).

    The child shares ``netlist`` copy-on-write, parses the baseline and
    exits 0 iff ``netlist`` extends it, else 1, a failure included,
    through ``os._exit``: it writes no file, prints nothing and runs no
    exit handler. A failed child costs time, not a wrong verdict: a
    netlist that extends its baseline passes the simulated check too."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return None
    if threads > 1 or len(os.sched_getaffinity(0)) < 2:
        return None
    pid = os.fork()
    if pid == 0:
        try:
            baseline = parse_netlist(_read(path, "netlist"))
            os._exit(0 if sim.extends(netlist, baseline) else 1)
        finally:
            os._exit(1)
    return pid


def cmd_simulate(args):
    """Simulate the netlist under the stimulus; with ``--baseline``, also
    decide whether its primary outputs equal the baseline's (stealth).

    Stealth is first decided from structure, ``sim.extends``, in a child
    forked once the netlist is parsed (``_fork_extends``), while this
    process builds the index, reads the stimulus and simulates. The
    child's exit code is read only once the index here exists, since
    ``extends`` needs an acyclic netlist. Any code but 0 goes straight to
    the simulated check with no ``extends`` here, since ``extends``
    implies that check passes; with no child, this process tries
    ``extends`` first. So the errors, their order, the exit code and the
    outputs are those of the serial order whichever way the verdict is
    made, and the child is killed and reaped before this function
    returns or raises."""
    if args.expect_secret_hex is not None:
        if args.secret_width is None:
            raise ValueError("--expect-secret-hex needs --secret-width")
        if not 0 <= int(args.expect_secret_hex, 16) < 1 << args.secret_width:
            raise ValueError(f"--expect-secret-hex {args.expect_secret_hex} "
                             f"does not fit in {args.secret_width} bits")
    netlist = parse_netlist(_read(args.netlist, "netlist"))
    child = _fork_extends(netlist, args.baseline) if args.baseline else None
    try:
        netlist.index
        stimulus = sim.parse_stimulus(_read(args.stimulus, "stimulus"))
        cycles = args.cycles if args.cycles is not None else len(stimulus)
        trace = sim.simulate(netlist, stimulus, cycles)
        stealth = extended = None  # no child: this process tries extends
        if child:
            # a status of 0 is a true verdict; any other, a killed
            # child's among them, goes to the simulated check
            extended = os.waitpid(child, 0)[1] == 0
            child = None
        if extended:
            stealth = True
        elif args.baseline:
            baseline = parse_netlist(_read(args.baseline, "netlist"))
            if extended is None and sim.extends(netlist, baseline):
                # acyclic and output-equal on every stimulus: the baseline
                # needs no index or run of its own
                stealth = True
            else:
                # the stealth check of equivalence_check, against the
                # trace above; a cyclic baseline exits 4 before a port
                # mismatch
                baseline.index
                sim.check_ports(baseline, netlist)
                stealth = sim.outputs_equal(
                    sim.simulate(baseline, stimulus, cycles), trace)
    finally:
        if child:
            import signal

            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
    secret = recovered = None
    if args.secret_width:
        secret = sim.reconstruct_secret(trace, args.secret_width)
        if args.expect_secret_hex is not None:
            # no secret captured is a failed recovery, not an unknown one
            recovered = secret == int(args.expect_secret_hex, 16)
    report = {
        "report_type": "simulate",
        "netlist": str(args.netlist),
        "cycles": cycles,
        "leak_cycles": len(trace.leak_symbols()),
        "recovered_secret_hex": f"{secret:x}" if secret is not None else None,
        "k_recovered": recovered,
        "stealth_equal": stealth,
    }
    out = _outdir(args)
    (out / "trace.csv").write_text(
        sim.dump_trace(trace, sorted(netlist.output_ports())))
    (out / "sim_report.json").write_text(json.dumps(report, indent=1))
    print(f"wrote {out / 'trace.csv'} ({cycles} cycles, "
          f"{report['leak_cycles']} leak cycles)")
    return EXIT_OK


@cache  # one tree per process: its objects refer to each other in cycles
def build_parser():
    ap = argparse.ArgumentParser(
        prog="kecscope",
        description="Locate Keccak cores in blind netlists and insert a "
                    "power side-channel trojan at the recovered input register.")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config, overrides flags")
    common.add_argument("--out-dir", default=".")
    # the design options analyze and inject share
    design = argparse.ArgumentParser(add_help=False)
    design.add_argument("--netlist", required=True)
    design.add_argument("--lane-width", type=int, choices=LANE_WIDTHS, default=64)
    design.add_argument("--instances", type=_positive_int, default=1)
    design.add_argument("--shares", type=_positive_int, default=1)

    g = sub.add_parser("gen", parents=[common],
                       help="generate a victim accelerator and sidecar")
    g.add_argument("--w", type=int, default=64)
    g.add_argument("--instances", type=int, default=1)
    g.add_argument("--shares", type=int, default=1)
    g.add_argument("--decoys", type=int, default=0)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--loader", choices=("absorb", "split"), default="absorb")
    g.add_argument("--anonymize-seed", type=int, default=None)
    g.set_defaults(fn=cmd_gen)

    a = sub.add_parser("analyze", parents=[common, design],
                       help="run the localization pipeline")
    a.add_argument("--sidecar")
    a.add_argument("--fif", type=int)
    a.add_argument("--fic", type=int)
    a.add_argument("--fof", type=int)
    a.add_argument("--foc", type=int)
    a.set_defaults(fn=cmd_analyze)

    i = sub.add_parser("inject", parents=[common, design],
                       help="insert the trojan at the located register")
    i.add_argument("--result", help="analyze report.json; omitted = analyze inline")
    i.add_argument("--t", type=int, default=64)
    i.add_argument("--l", type=int, default=64)
    i.add_argument("--trigger-hex", type=_hex, required=True)
    i.add_argument("--capture-delay", type=int, default=2)
    i.add_argument("--k-offset", type=int, default=0)
    i.add_argument("--budget-pct", type=_budget, default=None)
    i.add_argument("--reset-net", default=None)
    i.set_defaults(fn=cmd_inject)

    s = sub.add_parser("simulate", parents=[common],
                       help="cycle-accurate simulation and verdicts")
    s.add_argument("--netlist", required=True)
    s.add_argument("--stimulus", required=True)
    s.add_argument("--cycles", type=int, default=None)
    s.add_argument("--baseline", help="stealth-compare primary outputs against")
    s.add_argument("--secret-width", type=int, choices=sim.ALLOWED_L, default=None)
    s.add_argument("--expect-secret-hex", type=_hex, default=None)
    s.set_defaults(fn=cmd_simulate)
    return ap


def _apply_config(parser, argv, args):
    """Batch workflows drive runs from JSON config files whose entries
    override the corresponding flags. Each entry becomes one ``--key=value``
    flag after argv, so argparse checks it like a typed flag and the last
    flag wins."""
    overrides = _read(args.config, "config", lambda text: dict(json.loads(text)))
    for key in overrides:
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("fn", "command", "config"):
            raise ValueError(f"unknown config key {key!r}")
    args = parser.parse_args(
        argv + [f"--{key.replace('_', '-')}={v}" for key, v in overrides.items()])
    for key, value in overrides.items():
        # a value of the wrong JSON type does not parse back to itself
        if getattr(args, key.replace("-", "_")) != value:
            raise ValueError(
                f"config value {value!r} for {key!r} has the wrong type")
    return args


# Every failure a command may end in: exception class, by module and
# name -> (exit code, message prefix). Nothing else is caught, so a defect
# keeps its traceback. The first match wins, so a subclass comes before its
# base. Only the classes of loaded modules are tried: a command cannot have
# raised one from a module it never loaded, so the failure path loads none.
FAILURES = {
    "kecscope.netlist.CombinationalCycleError": (EXIT_INVALID, "violation"),
    "kecscope.netlist.NetlistError": (EXIT_INVALID, "error"),
    "kecscope.truth.KeccakNotPresentError": (EXIT_NOT_FOUND, "not found"),
    "kecscope.trojan.InsertionError": (EXIT_NOT_FOUND, "not found"),
    "builtins.ValueError": (EXIT_USAGE, "error"),
    "kecscope.sim.SimulationError": (EXIT_USAGE, "error"),
    "builtins.OSError": (EXIT_USAGE, "error"),
}


def _failure(e):
    """The (exit code, prefix) of the first FAILURES class ``e`` is an
    instance of, else None."""
    for path, outcome in FAILURES.items():
        module, _, name = path.rpartition(".")
        if (module in sys.modules
                and isinstance(e, getattr(sys.modules[module], name))):
            return outcome
    return None


def main(argv=None):
    """Run one command; return its exit code (argparse raises
    ``SystemExit`` for a flag it rejects).

    The command runs with the cyclic garbage collector off, and the
    caller's setting comes back when it ends, however it ends. Its stages
    build about 10^5 long-lived objects per netlist and put none of them
    in a reference cycle, so a collection would only walk them again and
    free nothing; reference counting frees them. What a cycle holds waits
    for the collector to be back on: here only the few dozen small
    objects that ``json.dumps`` with ``indent`` leaves per report."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        if args.config:
            args = _apply_config(parser, argv, args)
        return args.fn(args)
    except Exception as e:
        failure = _failure(e)
        if failure is None:
            raise
        code, prefix = failure
        print(f"{prefix}: {e}", file=sys.stderr)
        return code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
