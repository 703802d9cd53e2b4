"""Child processes of the benchmark. Each writes one JSON file and exits.

    child.py cli --out F --op ID [--replay W --cli-report R] [--probe P]
                 [--split N] -- <kecscope arguments>
        Import kecscope.cli and run one command in process, with a span
        around the command and around each layer function it calls by name.
        With --replay, then replay the analysis stage by stage; with
        --probe, insert the trojan at the replayed result and simulate it;
        with --split, time the simulated netlist at 1 and N cycles.

    child.py timed --out F -- <kecscope arguments>
        Import kecscope.cli and run one command in process, untraced, timed
        at the nominal speed (see speed.py).

    child.py simbatch --out F --seed S --seconds T --trace 0|1 --setups N
                      --workdir D
        The sim-batch workload: N set-ups, then ops until T seconds pass.

Run from the repository root with src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from speed import DENSE, Sampled


def _write(path, payload):
    Path(path).write_text(json.dumps(payload, indent=1, default=str))


def cmd_cli(args):
    tracer = Tracer(args.op)
    with tracer.span("cli.import"):
        from kecscope import cli, sim
    from kecscope.netlist import parse_netlist

    import layers

    targets = [
        (cli, "generate_accelerator", "generator.generate"),
        (cli, "anonymize", "netlist.anonymize"),
        (cli, "write_netlist", "netlist.write"),
        (cli, "parse_netlist", "netlist.parse"),
        (cli, "validate", "netlist.validate"),
        (cli, "run_pipeline", "locate.run_pipeline"),
        (cli, "insert_hth", "trojan.insert"),
        (cli, "overhead_report", "trojan.overhead"),
        (sim, "validate", "netlist.validate"),
        (sim, "simulate", "sim.simulate"),
        (sim, "equivalence_check", "sim.equivalence"),
    ]
    command = args.argv[0]
    with tracer.span(f"cli.{command}") as top, tracer.patched(targets):
        try:
            code = cli.main(args.argv)
        except SystemExit as e:
            code = e.code
    cli_end = time.perf_counter()
    cli_args = cli.build_parser().parse_args(args.argv)
    metrics = {"cli.import_ms": tracer.ms("cli.import")}
    failures = [] if code == 0 else [f"{command} exited {code}"]
    pipeline_result = None

    if command == "gen":
        for name in ("generator.generate", "netlist.anonymize",
                     "netlist.write"):
            metrics[name + "_ms"] = tracer.ms(name)
    elif command == "analyze":
        metrics["cli.analyze_extra_ms"] = tracer.self_ms(top)
        metrics["locate.run_pipeline_ms"] = tracer.ms("locate.run_pipeline")
        pipeline_result, stage_ms = tracer.returned.get(
            "locate.run_pipeline", (None, {}))
        # run_pipeline's own stage timings, next to the external spans
        metrics.update({f"locate.run_pipeline.{stage}_ms": ms
                        for stage, ms in stage_ms.items()})
    elif command == "inject" and code == 0:
        metrics["trojan.insert_ms"] = tracer.ms("trojan.insert")
        _, edit = tracer.returned["trojan.insert"]
        metrics["trojan.added_cells"] = len(edit.added_cells)
        metrics["trojan.overhead_pct"] = \
            tracer.returned["trojan.overhead"]["delta_pct"]
    elif command == "simulate":
        metrics["sim.equivalence_ms"] = tracer.ms("sim.equivalence")

    if args.replay and code == 0:
        cli_inputs = None
        if args.cli_report:
            cli_inputs = json.loads(
                Path(args.cli_report).read_text())["input_candidates"]
        netlist, result, replayed, problems = layers.replay_analysis(
            tracer, Path(cli_args.netlist).read_text(), args.replay)
        metrics.update(replayed)
        failures += [f"replay: {p}" for p in problems[:3]]
        failures += layers.check_replay(result, pipeline_result, cli_inputs)
        if args.probe:
            probe = json.loads(Path(args.probe).read_text())
            probed, probe_failures = _probe(tracer, layers, netlist, result,
                                            probe)
            metrics.update(probed)
            failures += probe_failures
    if args.split and code == 0:
        netlist = parse_netlist(Path(cli_args.netlist).read_text())
        stimulus = sim.parse_stimulus(Path(cli_args.stimulus).read_text())
        _, split = layers.sim_split(tracer, netlist, stimulus, args.split)
        metrics.update(split)

    # import and command, as cmd_timed times them untraced
    cli_s = cli_end - tracer.spans[0]["start"]
    _write(args.out, {"code": code, "cli_s": cli_s, "metrics": metrics,
                      "failures": failures, "spans": tracer.spans})


def cmd_timed(args):
    with Sampled() as timing:
        from kecscope import cli
        try:
            code = cli.main(args.argv)
        except SystemExit as e:
            code = e.code
    _write(args.out, {"code": code or 0, "wall_s": timing.wall_s,
                      "scaled_s": timing.scaled_s,
                      "reference_s": timing.reference_s})


def _probe(tracer, layers, netlist, result, probe):
    """Trojan and simulator layers on a workload whose op has neither: the
    trojan goes in at the replayed register and a short prefix of the
    attack stimulus runs through the split and the stealth check."""
    from kecscope import sim
    from kecscope.trojan import HthSpec, insert_hth, overhead_report

    spec = HthSpec(t=probe["t"], l=probe["l"], trigger=probe["trigger"],
                   capture_delay=probe["capture_delay"])
    trojaned, edit = tracer.call("trojan.insert", insert_hth, netlist,
                                 result, spec)
    overhead = tracer.call("trojan.overhead", overhead_report, netlist,
                           trojaned)
    cycles = probe["cycles"]
    stimulus = sim.parse_stimulus(Path(probe["stimulus"]).read_text())[:cycles]
    _, metrics = layers.sim_split(tracer, trojaned, stimulus, cycles)
    equal = tracer.call("sim.equivalence", sim.equivalence_check, netlist,
                        trojaned, stimulus, cycles)
    failures = [] if equal else ["probe: trojaned design not output-equivalent"]
    if edit.removed_cells or edit.removed_nets:
        failures.append("probe: insert removed victim cells or nets")
    metrics.update({
        "trojan.insert_ms": tracer.ms("trojan.insert"),
        "trojan.added_cells": len(edit.added_cells),
        "trojan.overhead_pct": overhead["delta_pct"],
        "sim.equivalence_ms": tracer.ms("sim.equivalence"),
    })
    return metrics, failures


def cmd_simbatch(args):
    import hashlib

    from kecscope import sim
    from kecscope.trojan import overhead_report

    import layers
    import simbatch as sb

    workdir = Path(args.workdir)
    setups, setup_walls, setup_digests, spans = [], [], [], []
    setup_metrics = {}
    for i in range(args.setups):
        tracer = Tracer(f"setup-{i}") if args.trace else sb.Untraced
        inp = None      # each set-up starts from the same heap
        # the samples would run inside the traced spans, so a traced
        # set-up is not timed
        timing = contextlib.nullcontext() if args.trace else Sampled()
        with timing:
            inp = sb.build(args.seed, workdir, tracer)
        if not args.trace:
            setup_walls.append(timing.wall_s)
            setups.append(timing.scaled_s)
        setup_digests.append({name: hashlib.sha256(path.read_bytes()).hexdigest()
                              for name, path in inp.files.items()})
        if args.trace:
            setup_metrics = {n + "_ms": tracer.ms(n) for n in (
                "generator.generate", "netlist.anonymize", "netlist.write")}
            spans += tracer.spans
    failures = []
    if any(d != setup_digests[0] for d in setup_digests):
        failures.append("set-ups generated different designs")
    expected = sb.expected_columns(inp)

    ops = []
    deadline = time.perf_counter() + args.seconds
    while not ops or time.perf_counter() < deadline:
        try:
            with Sampled(DENSE) as timing:
                out = sb.run_op(inp)
        except Exception:
            # counted as a failed op and reported; an op that raises would
            # raise again on the same inputs, so no further ops are tried
            ops.append({"failures": [traceback.format_exc(limit=3)],
                        "quality": {}, "digests": {}})
            break
        op_failures, quality, digests = sb.check_op(inp, expected, out)
        if ops and digests != ops[0]["digests"]:
            op_failures.append("outputs differ from the first op")
        rec = {k: out[k] for k in ("oracle_s", "analyze_s", "sweep_s")}
        rec.update(op_s=timing.scaled_s, op_wall_s=timing.wall_s,
                   reference_s=timing.reference_s)
        rec.update(failures=op_failures, quality=quality, digests=digests)
        if args.trace:
            tracer = Tracer(f"sim-batch-{len(ops)}")
            with tracer.span("op") as top:
                traced = sb.run_op(inp, tracer)
            traced_failures, _, traced_digests = sb.check_op(inp, expected,
                                                             traced)
            if traced_digests != digests:
                traced_failures.append("traced op outputs differ")
            _, metrics = layers.sim_split(
                tracer, inp.oracle, inp.oracle_stim, inp.rounds + 1,
                watch=inp.watch, init=inp.init, batch=sb.ORACLE_LANES)
            if not tracer.call("sim.equivalence", sim.equivalence_check,
                               inp.victim, traced["trojaned"], inp.sweep_stim,
                               sb.SWEEP_CYCLES):
                traced_failures.append("trojaned victim not output-equivalent")
            overhead = overhead_report(inp.victim, traced["trojaned"])
            metrics.update(setup_metrics)
            metrics.update({
                "trojan.insert_ms": tracer.ms("trojan.insert"),
                "trojan.added_cells": len(traced["edit"].added_cells),
                "trojan.overhead_pct": overhead["delta_pct"],
                "sim.equivalence_ms": tracer.ms("sim.equivalence"),
                "bench.trace_overhead_ms":
                    (top["end"] - top["start"] - timing.wall_s) * 1e3,
            })
            rec["failures"] += traced_failures
            rec["metrics"] = metrics
            spans += tracer.spans
        ops.append(rec)

    _write(args.out, {
        "setup_s": setups, "setup_wall_s": setup_walls,
        "setup_failures": failures,
        "input_digests": setup_digests[0], "ops": ops, "spans": spans,
    })


def main(argv=None):
    ap = argparse.ArgumentParser(prog="child.py")
    sub = ap.add_subparsers(dest="command", required=True)
    c = sub.add_parser("cli")
    c.add_argument("--out", required=True)
    c.add_argument("--op", required=True)
    c.add_argument("--replay", type=int, default=0, metavar="LANE_WIDTH")
    c.add_argument("--cli-report")
    c.add_argument("--probe")
    c.add_argument("--split", type=int, default=0, metavar="CYCLES")
    c.add_argument("argv", nargs=argparse.REMAINDER)
    t = sub.add_parser("timed")
    t.add_argument("--out", required=True)
    t.add_argument("argv", nargs=argparse.REMAINDER)
    s = sub.add_parser("simbatch")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--seconds", type=float, required=True)
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s.add_argument("--setups", type=int, required=True)
    s.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    if args.command in ("cli", "timed") and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    {"cli": cmd_cli, "timed": cmd_timed,
     "simbatch": cmd_simbatch}[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
