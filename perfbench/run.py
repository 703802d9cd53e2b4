"""kecscope benchmark: blind locate, blind attack and batched simulation.

Run from the repository root:

    python3 perfbench/run.py --workload locate-blind-51k --seed 1 \\
        --seconds 20 --trace 0

``--workload all`` runs every workload in turn. Each workload prints one
row of metrics; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones. Everything a run writes goes under perfbench/out/,
including one results file per run with every op, digest and span.

Workloads (closed loop, one op at a time, each in its own child process):

  locate-blind-51k  one op is one ``kecscope analyze`` of the 51,039-cell
      blind design (gen --w 64 --decoys 25000 --seed 7). All of its cost is
      in the analysis layers, none in the simulator.
  attack-blind-18k  one op is ``analyze``, ``inject`` and ``simulate`` with
      the stealth check on the 18,232-cell blind design (--decoys 3000):
      the full attack, and the only workload that goes through the CLI's
      inject. The simulator does most of its work.
  sim-batch         one op is the functional oracle and the 2^16-word
      trigger sweep through the Python API (see simbatch.py): dense
      multi-lane values, init presets and large watch lists.

The workload seed picks the anonymization of the blind designs (every
port, net and cell renamed and reordered; the structure stays the
ROADMAP's fixed design), the oracle's random states and the hash seed of
every child interpreter. The same seed gives the same inputs.

End-to-end metrics, every one on every workload (medians over the ops):
  op_s        time of one op at the nominal host speed: its wall time,
              scaled by a reference sampled during the op in its process
              (speed.py); on attack-blind-18k the sum over the three CLI
              commands, each run in process by child.py
  setup_s     one set-up (generation, anonymization, writes, stimulus
              construction) at the nominal speed, the median of SETUPS
  peak_rss_mb largest max RSS of an op's child (os.wait4); on sim-batch
              the one child that sets up and runs every op
  state_/input_ recall and precision, graded against the sidecar
The row also shows the unscaled medians (op_wall_s, setup_wall_s), the
host's mean reference sample (reference_s; speed.py holds the nominal),
the wall time of each part of an op (analyze_s, which on sim-batch is the
sweep's run_pipeline call, inject_s, simulate_s, oracle_s, sweep_s) and
secret_recovered, the share of attack ops that print the exact secret.
secret_recovered reads 0 on the blind attack, a known defect, so it is not
one of BENCHMARK.json's end-to-end metrics, which must never read 0.

Every op is checked: exit codes, reports against report_schema.json, no
removals in the inject audit, stealth_equal, every oracle lane against
keccak_f, exactly one sweep word firing, and outputs (reports without
timings, CSVs, trace, trojaned netlist, oracle state) identical to the
first op's by sha256. A failed check counts the op as failed; the run goes
on. Input and output digests go into the results file.

The traced run (--trace 1) runs each op untraced and then traced in
child.py, which records spans around each layer call: the CLI command in
process, a stage-by-stage replay of the analysis that must agree with
run_pipeline and with the CLI report, and the trojan and simulator
layers (see child.py and layers.py). bench.trace_overhead_ms is the
traced op's wall time minus the untraced op's. Every per-layer metric is
measured on every workload, from the medians over the traced ops:
  generator, netlist.anonymize/write  the set-up (sim-batch generates two
                                designs, so generator.generate_ms sums both)
  cli.*, locate.run_pipeline_ms kecscope analyze run in process (on
                                sim-batch, of the sweep's victim)
  netlist.parse/validate, depgraph, scoring, grouping, keccak, locate.*
                                the replay of that analysis, one call each
  trojan.*                      inject on attack-blind-18k, the sweep's
                                insert on sim-batch, and on locate-blind-51k
                                an insert at the replayed register
  sim.*                         the split (1 cycle and full length, with and
                                without validation) of the attack's simulate,
                                of the oracle on sim-batch, and of the first
                                PROBE_CYCLES attack cycles on the trojaned 51k
                                design; sim.equivalence_ms is the stealth check
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import Sampled

ROOT = Path.cwd().resolve()
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SRC = ROOT / "src"
SCHEMA = SRC / "kecscope" / "report_schema.json"

SETUPS = 3                 # set-ups per run; setup_s is their median
RUN_LIMIT_S = 170          # children still running this long after the
                           # start of a run are killed
GEN_SEED = 7
LANE_WIDTH = 64
TRIGGER = 0x5A5AC3C30F0F9696
SECRET = 0xDEADBEEF12345678
CAPTURE_DELAY = 2
LEAK_TAIL = 40             # quiet cycles after the secret; 32 of them leak
ATTACK_CYCLES = 3 + 1 + CAPTURE_DELAY + 1 + LEAK_TAIL
PROBE_CYCLES = 8           # simulated cycles of the probe on the 51k design
SIMBATCH_CLI_REPEATS = 3   # traced analyze runs of the sim-batch victim


@dataclass
class CliWorkload:
    name: str
    decoys: int
    commands: tuple[str, ...]
    probe: bool            # trace the trojan and simulator layers separately


WORKLOADS = {
    "locate-blind-51k": CliWorkload("locate-blind-51k", 25000,
                                    ("analyze",), probe=True),
    "attack-blind-18k": CliWorkload("attack-blind-18k", 3000,
                                    ("analyze", "inject", "simulate"),
                                    probe=False),
    "sim-batch": None,
}


@dataclass
class Run:
    """What one workload run measured."""
    seed: int
    setup_s: list = field(default_factory=list)     # scaled, see speed.py
    setup_wall_s: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    checks: list = field(default_factory=list)     # attempts that are no op
    layer_rows: list = field(default_factory=list)  # per-layer metrics
    input_digests: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    env: dict = field(default_factory=dict)

    def check(self, what: str, failures: list):
        self.checks.append({"what": what, "failures": failures})

    def failures(self):
        return [f for rec in self.checks + self.ops for f in rec["failures"]]


# Linux reports a child's max RSS as at least the peak RSS of the process
# it was spawned from, so children are spawned by this small process,
# started before the benchmark itself holds any data.
SPAWNER = """
import json, os, subprocess, sys, threading
for line in sys.stdin:
    req = json.loads(line)
    with open(req["log"], "w") as out:
        proc = subprocess.Popen(req["argv"], stdout=out,
                                stderr=subprocess.STDOUT, env=req["env"],
                                cwd=req["cwd"])
        killer = threading.Timer(req["limit"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, usage.ru_maxrss / 1024]), flush=True)
"""


class Spawner:
    """Runs children one at a time through the SPAWNER process."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", SPAWNER],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv, log: Path, env: dict, limit: float):
        """Returns (exit code, max RSS MB)."""
        self.proc.stdin.write(json.dumps({
            "argv": argv, "log": str(log), "env": env, "cwd": str(ROOT),
            "limit": limit}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("error: the spawner process died")
        return tuple(json.loads(line))


class Child:
    """Runs benchmark children from the repository root with src/ importable."""

    def __init__(self, spawner: Spawner, seed: int):
        self.spawner = spawner
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = str(seed % (1 << 32))
        self.kill_at = time.perf_counter() + RUN_LIMIT_S

    def run(self, argv, log: Path):
        """Returns (exit code, max RSS MB)."""
        limit = max(1.0, self.kill_at - time.perf_counter())
        return self.spawner.run(argv, log, self.env, limit)

    def script(self, args, out: Path, log: Path):
        """Runs child.py, which writes its results to ``out``. Returns
        (exit code, max RSS MB, results or None on failure)."""
        out.unlink(missing_ok=True)
        command, *rest = args
        code, rss = self.run(
            [sys.executable, str(BENCH / "child.py"), command,
             "--out", rel(out), *rest], log)
        ok = code == 0 and out.is_file()
        return code, rss, json.loads(out.read_text()) if ok else None

    def timed(self, args, out: Path, log: Path):
        """Runs one kecscope command untraced, timed at the nominal speed
        (speed.py). Returns (exit code, max RSS MB, timing or None)."""
        code, rss, timing = self.script(["timed", "--", *args], out, log)
        if timing is not None:
            code = timing["code"]
        return code, rss, timing


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


# ---- the two CLI workloads -------------------------------------------------

def attack_stimulus(design: Path, rename: dict) -> list[dict]:
    """Trigger word, then the secret capture_delay + 1 cycles later, then
    the leak phase; data_in0 mapped to its blind port names."""
    inputs = [line.split()[1] for line in design.read_text().splitlines()
              if line.startswith("input ")]
    quiet = {p: 0 for p in inputs}

    def word(v):
        vec = dict(quiet)
        vec.update({rename[f"data_in0[{z}]"]: (v >> z) & 1
                    for z in range(LANE_WIDTH)})
        return vec

    return ([quiet] * 3 + [word(TRIGGER)] + [quiet] * CAPTURE_DELAY
            + [word(SECRET)] + [quiet] * LEAK_TAIL)


def cli_setup(wl: CliWorkload, run: Run, child: Child, work: Path, traced):
    """Generate and anonymize the design, write it, build the stimulus.
    Traced: one set-up through the traced child, untimed; else SETUPS,
    each timed at the nominal speed (speed.py)."""
    from kecscope.sim import write_stimulus

    gen = ["gen", "--w", str(LANE_WIDTH), "--decoys", str(wl.decoys),
           "--seed", str(GEN_SEED), "--anonymize-seed", str(run.seed),
           "--out-dir", rel(work)]
    metrics, failures = {}, []
    for i in range(1 if traced else SETUPS):
        timing = None
        if traced:
            code, _, result = child.script(
                ["cli", "--op", "setup", "--", *gen], work / "gen-spans.json",
                work / "gen.log")
            if result is None:
                code = code or "no results"
            else:
                metrics = result["metrics"]
                run.spans += result["spans"]
        else:
            code, _, timing = child.timed(gen, work / "gen-timing.json",
                                          work / "gen.log")
        if code != 0:
            raise SystemExit(f"error: set-up exited {code}, see {work / 'gen.log'}")
        design = work / "design.nl"
        rename = json.loads((work / "design.rename.json").read_text())
        with Sampled() as stimulus:
            (work / "attack.stim").write_text(
                write_stimulus(attack_stimulus(design, rename)))
        if timing is not None:
            run.setup_wall_s.append(timing["wall_s"] + stimulus.wall_s)
            run.setup_s.append(timing["scaled_s"] + stimulus.scaled_s)
        digests = {name: sha256_file(work / name) for name in
                   ("design.nl", "design.truth.json", "attack.stim")}
        if run.input_digests and digests != run.input_digests:
            failures.append("set-ups generated different inputs")
        run.input_digests = digests
    run.check("setup", failures)
    return metrics


def cli_commands(wl: CliWorkload, work: Path, opdir: Path):
    design, out = rel(work / "design.nl"), rel(opdir)
    argv = {
        "analyze": ["analyze", "--netlist", design, "--sidecar",
                    rel(work / "design.truth.json"), "--lane-width",
                    str(LANE_WIDTH), "--out-dir", out],
        "inject": ["inject", "--netlist", design, "--result",
                   rel(opdir / "report.json"), "--t", str(LANE_WIDTH),
                   "--l", str(LANE_WIDTH), "--trigger-hex", f"{TRIGGER:x}",
                   "--capture-delay", str(CAPTURE_DELAY), "--out-dir", out],
        "simulate": ["simulate", "--netlist", rel(opdir / "trojaned.nl"),
                     "--stimulus", rel(work / "attack.stim"), "--baseline",
                     design, "--secret-width", str(LANE_WIDTH),
                     "--expect-secret-hex", f"{SECRET:x}", "--out-dir", out],
    }
    return [(c, argv[c]) for c in wl.commands]


class Checker:
    """Per-command correctness checks and digests of deterministic outputs."""

    def __init__(self):
        import jsonschema
        self.validator = jsonschema.Draft202012Validator(
            json.loads(SCHEMA.read_text()))

    def report(self, path: Path, failures: list):
        if not path.is_file():
            failures.append(f"{path.name} missing")
            return None
        report = json.loads(path.read_text())
        errors = list(self.validator.iter_errors(report))
        if errors:
            failures.append(f"{path.name}: {errors[0].message[:200]}")
        return report

    def check(self, command, opdir: Path, rec: dict):
        failures, digests = rec["failures"], rec["digests"]
        if command == "analyze":
            report = self.report(opdir / "report.json", failures)
            if report is None:
                return
            if not report.get("found"):
                failures.append("analyze found no input register")
            rec["quality"] = {k: v for k, v in (report.get("truth") or {}).items()
                              if k != "state_summary"}
            stable = {k: v for k, v in report.items()
                      if k not in ("stage_ms", "total_ms")}
            digests["report.json"] = hashlib.sha256(
                json.dumps(stable, sort_keys=True).encode()).hexdigest()
            names = ("scores.csv", "degrees.csv", "groups.csv")
        elif command == "inject":
            report = self.report(opdir / "inject_report.json", failures)
            audit = json.loads((opdir / "eco_audit.json").read_text())
            if audit["removed_cells"] or audit["removed_nets"] or (
                    report and (report["audit"]["removed_cells"]
                                or report["audit"]["removed_nets"])):
                failures.append("inject audit lists removals")
            names = ("trojaned.nl", "eco_audit.json", "inject_report.json")
        else:
            report = self.report(opdir / "sim_report.json", failures)
            if report is None:
                return
            if report["stealth_equal"] is not True:
                failures.append("trojaned design is not output-equivalent")
            # reported, not failed: the blind attack taps the located bits
            # in the wrong order and recovers no secret (ROADMAP Open item 4)
            rec["secret_recovered"] = report["k_recovered"] is True
            names = ("trace.csv", "sim_report.json")
        for name in names:
            digests[name] = sha256_file(opdir / name)


def cli_op(wl, work, opdir, child, checker, index):
    """One untraced op: the workload's commands in order, each a child."""
    opdir.mkdir(parents=True, exist_ok=True)
    rec = {"op": index, "walls": {}, "scaled": {}, "reference_s": [],
           "rss_mb": 0.0, "failures": [], "digests": {}, "quality": {}}
    for command, argv in cli_commands(wl, work, opdir):
        code, rss, timing = child.timed(argv, opdir / f"{command}-timing.json",
                                        opdir / f"{command}.log")
        rec["rss_mb"] = max(rec["rss_mb"], rss)
        if timing is not None:
            rec["walls"][command] = timing["wall_s"]
            rec["scaled"][command] = timing["scaled_s"]
            rec["reference_s"].append(timing["reference_s"])
        if code != 0:
            rec["failures"].append(f"{command} exited {code}")
            break
        try:
            checker.check(command, opdir, rec)
        except (OSError, KeyError, TypeError, ValueError) as e:
            rec["failures"].append(f"{command} outputs unreadable: {e!r}")
    rec["op_wall_s"] = sum(rec["walls"].values())
    rec["op_s"] = sum(rec["scaled"].values())
    rec["reference_s"] = median(rec["reference_s"])
    return rec


def traced_op(wl, work, child, index, cli_report: Path, probe: Path):
    """The same commands, each in a traced child, then the replay."""
    opdir = work / "traced"
    opdir.mkdir(parents=True, exist_ok=True)
    metrics, failures, spans, traced_s = {}, [], [], 0.0
    for command, argv in cli_commands(wl, work, opdir):
        extra = []
        if command == "analyze":
            extra = ["--replay", str(LANE_WIDTH), "--cli-report", rel(cli_report)]
            if wl.probe:
                extra += ["--probe", rel(probe)]
        elif command == "simulate":
            extra = ["--split", str(ATTACK_CYCLES)]
        code, _, result = child.script(
            ["cli", "--op", f"{wl.name}-{index}", *extra, "--", *argv],
            opdir / f"{command}-spans.json", opdir / f"{command}.log")
        if result is None:
            failures.append(f"traced {command} child exited {code}")
            break
        traced_s += result["cli_s"]
        metrics.update(result["metrics"])
        failures += result["failures"]
        spans += result["spans"]
    return metrics, failures, spans, traced_s


def run_cli_workload(wl: CliWorkload, child, seed, seconds, trace) -> Run:
    run = Run(seed)
    work = OUT / wl.name
    work.mkdir(parents=True, exist_ok=True)
    checker = Checker()
    setup_metrics = cli_setup(wl, run, child, work, trace)
    probe = work / "probe.json"
    probe.write_text(json.dumps({
        "t": LANE_WIDTH, "l": LANE_WIDTH, "trigger": TRIGGER,
        "capture_delay": CAPTURE_DELAY, "cycles": PROBE_CYCLES,
        "stimulus": rel(work / "attack.stim")}))
    deadline = time.perf_counter() + seconds
    while not run.ops or time.perf_counter() < deadline:
        rec = cli_op(wl, work, work / "op", child, checker, len(run.ops))
        if run.ops and not rec["failures"] and \
                rec["digests"] != run.ops[0]["digests"]:
            rec["failures"].append("outputs differ from the first op")
        if trace and not rec["failures"]:
            metrics, failures, spans, traced_s = traced_op(
                wl, work, child, len(run.ops), work / "op" / "report.json",
                probe)
            metrics.update(setup_metrics)
            metrics["bench.trace_overhead_ms"] = \
                (traced_s - rec["op_wall_s"]) * 1e3
            run.layer_rows.append(metrics)
            rec["failures"] += failures
            run.spans += spans
        run.ops.append(rec)
    return run


# ---- sim-batch ---------------------------------------------------------------

def run_simbatch(child, seed, seconds, trace) -> Run:
    run = Run(seed)
    work = OUT / "sim-batch"
    work.mkdir(parents=True, exist_ok=True)
    code, rss, result = child.script(
        ["simbatch", "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--setups", str(SETUPS),
         "--workdir", rel(work)],
        work / "simbatch.json", work / "simbatch.log")
    if result is None:
        raise SystemExit(f"error: sim-batch child exited {code}, "
                         f"see {work / 'simbatch.log'}")
    run.setup_s = result["setup_s"]
    run.setup_wall_s = result["setup_wall_s"]
    run.check("setup", result["setup_failures"])
    run.input_digests = result["input_digests"]
    run.spans = result["spans"]
    for rec in result["ops"]:
        rec["rss_mb"] = rss
        rec["walls"] = {k: rec[f"{k}_s"] for k in ("oracle", "sweep", "analyze")
                        if f"{k}_s" in rec}
        if "metrics" in rec:
            run.layer_rows.append(rec.pop("metrics"))
        run.ops.append(rec)
    if trace:
        # the CLI layers, on the victim the sweep analyzes
        opdir = work / "cli"
        opdir.mkdir(exist_ok=True)
        for i in range(SIMBATCH_CLI_REPEATS):
            argv = ["analyze", "--netlist", rel(work / "victim.nl"),
                    "--sidecar", rel(work / "victim.truth.json"),
                    "--lane-width", "16", "--out-dir", rel(opdir)]
            code, _, cli = child.script(
                ["cli", "--op", f"sim-batch-cli-{i}", "--replay", "16",
                 "--cli-report", rel(opdir / "report.json"), "--", *argv],
                opdir / "analyze-spans.json", opdir / "analyze.log")
            if cli is None:
                run.check("traced analyze", [f"child exited {code}"])
                continue
            run.check("traced analyze", cli["failures"])
            run.spans += cli["spans"]
            run.layer_rows.append(cli["metrics"])
    return run


# ---- metrics -------------------------------------------------------------------

def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(run: Run) -> dict:
    # a failed op may have stopped early, so time only the ones that passed
    ops = [op for op in run.ops if not op["failures"]] or run.ops
    quality = {k: median(op["quality"].get(k) for op in ops)
               for k in ("state_recall", "state_precision", "input_recall",
                         "input_precision")}
    return {
        "op_s": median(op.get("op_s") for op in ops),
        "setup_s": median(run.setup_s),
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
        **quality,
    }


def per_layer(run: Run) -> dict:
    names = {k for row in run.layer_rows for k in row}
    return {k: median(row.get(k) for row in run.layer_rows) for k in names}


def workload_extras(run: Run) -> dict:
    """The unscaled walls, the host's reference time, the per-command
    walls and the attack's outcome, for the row."""
    extras = {
        "op_wall_s": median(op.get("op_wall_s") for op in run.ops),
        "setup_wall_s": median(run.setup_wall_s),
        "reference_s": median(op.get("reference_s") for op in run.ops),
    }
    extras = {k: v for k, v in extras.items() if v is not None}
    for key in ("analyze", "inject", "simulate", "oracle", "sweep"):
        value = median(op["walls"].get(key) for op in run.ops)
        if value is not None:
            extras[f"{key}_s"] = value
    recovered = [op["secret_recovered"] for op in run.ops
                 if "secret_recovered" in op]
    if recovered:
        extras["secret_recovered"] = sum(recovered) / len(recovered)
    return extras


def run_workload(spawner, name, seed, seconds, trace, spec):
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "loadavg_before": os.getloadavg()}
    wl = WORKLOADS[name]
    child = Child(spawner, seed)
    if wl is None:
        run = run_simbatch(child, seed, seconds, trace)
    else:
        run = run_cli_workload(wl, child, seed, seconds, trace)
    env["loadavg_after"] = os.getloadavg()
    run.env = env

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = per_layer(run) if trace else end_to_end(run)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted if measured.get(m["name"]) is not None}
    run.check("metrics", [f"metric {m['name']} not measured"
                          for m in wanted if m["name"] not in metrics])
    attempts = run.checks + run.ops
    failed = sum(1 for rec in attempts if rec["failures"])
    result = {"correct": failed == 0, "attempted": len(attempts),
              "failed": failed, "metrics": metrics}

    out = OUT / "results" / f"{name}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    extras = workload_extras(run)
    out.write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "result": result, "extras": extras,
        "setup_s": run.setup_s, "checks": run.checks,
        "input_digests": run.input_digests,
        "output_digests": run.ops[0].get("digests", {}),
        "ops": run.ops, "layer_rows": run.layer_rows, "spans": run.spans},
        indent=1, default=str))
    print_row(name, metrics, extras, result, run, out)
    return result


def print_row(name, metrics, extras, result, run, out):
    cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    cells += [f"{k}={v:.6g}" for k, v in extras.items()]
    cells.append(f"failed={result['failed']}/{result['attempted']}")
    print(f"{name:18s} " + "  ".join(cells))
    digest = hashlib.sha256(json.dumps(
        [run.input_digests, run.ops[0].get("digests", {})],
        sort_keys=True).encode()).hexdigest()
    print(f"{'':18s} inputs+outputs sha256 {digest[:16]}  "
          f"nproc={run.env['nproc']} python={run.env['python']} "
          f"load={run.env['loadavg_before'][0]:.2f}->"
          f"{run.env['loadavg_after'][0]:.2f}  details: {rel(out)}")
    for failure in run.failures()[:10]:
        print(f"{'':18s} FAILED: {failure}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload; default run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kecscope" / "cli.py").is_file():
        print(f"error: {SRC / 'kecscope'} not found; run from the root of a "
              f"kecscope checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with Spawner() as spawner:
        results = {n: run_workload(spawner, n, args.seed, seconds, args.trace,
                                   spec)
                   for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
