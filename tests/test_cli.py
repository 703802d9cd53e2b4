import gc
import json
import os
import random
import signal
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest

from kecscope import cli, depgraph, grouping, locate, netlist, scoring, sim
from kecscope.cli import main
from kecscope.generator import GenConfig, generate_accelerator
from kecscope.locate import PipelineConfig, run_pipeline
from kecscope.netlist import anonymize, parse_netlist, validate, write_netlist
from kecscope.sim import equivalence_check, simulate, write_stimulus
from kecscope.trojan import HthSpec, insert_hth

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1]
     / "src" / "kecscope" / "report_schema.json").read_text())


def run(*argv):
    try:
        return main(list(argv))
    except SystemExit as e:
        return e.code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    code = run("gen", "--w", "16", "--decoys", "400", "--seed", "2",
               "--out-dir", str(root / "g"))
    assert code == 0
    return root


@pytest.fixture(scope="module")
def analyzed(workdir):
    """Analyze output of the generated design, sidecar included, in
    ``workdir/a``; written here so that no test depends on another."""
    out = workdir / "a"
    assert run("analyze", "--netlist", str(workdir / "g" / "design.nl"),
               "--sidecar", str(workdir / "g" / "design.truth.json"),
               "--lane-width", "16", "--out-dir", str(out)) == 0
    return out


@pytest.fixture(scope="module")
def injected(workdir, analyzed):
    """Inject output at the analyzed register, 16-bit trigger ``beef``,
    in ``workdir/i``."""
    out = workdir / "i"
    assert run("inject", "--netlist", str(workdir / "g" / "design.nl"),
               "--result", str(analyzed / "report.json"),
               "--lane-width", "16", "--t", "16", "--l", "16",
               "--trigger-hex", "beef", "--capture-delay", "1",
               "--budget-pct", "10", "--out-dir", str(out)) == 0
    return out


def test_gen_writes_files(workdir):
    assert (workdir / "g" / "design.nl").exists()
    truth = json.loads((workdir / "g" / "design.truth.json").read_text())
    assert truth["lane_width"] == 16
    assert len(truth["instances"][0]["state_ffs"]) == 400


def test_gen_requires_seed(tmp_path):
    assert run("gen", "--w", "16", "--out-dir", str(tmp_path)) == 2


def test_gen_invalid_width(tmp_path):
    assert run("gen", "--w", "63", "--seed", "1",
               "--out-dir", str(tmp_path)) == 2


def test_gen_anonymized(workdir):
    code = run("gen", "--w", "16", "--decoys", "100", "--seed", "2",
               "--anonymize-seed", "5", "--out-dir", str(workdir / "ga"))
    assert code == 0
    assert (workdir / "ga" / "design.rename.json").exists()
    n = parse_netlist((workdir / "ga" / "design.nl").read_text())
    assert not any(c.name.startswith("k0_") for c in n.cells)


def test_gen_masked_sidecar_counts(tmp_path):
    code = run("gen", "--w", "16", "--shares", "2", "--seed", "4",
               "--out-dir", str(tmp_path))
    assert code == 0
    truth = json.loads((tmp_path / "design.truth.json").read_text())
    total = sum(len(i["state_ffs"]) for i in truth["instances"])
    assert total == 800


def test_analyze_report(analyzed):
    report = json.loads((analyzed / "report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["found"] and report["variant"] == "grouped"
    assert report["truth"]["state_recall"] == 1.0
    assert report["truth"]["input_precision"] == 1.0
    assert report["truth"]["input_recall"] == 1.0
    assert set(report["stage_ms"]) == {"dependencies", "scores", "groups",
                                       "bounds_search", "localize"}
    for f in ("scores.csv", "degrees.csv", "groups.csv"):
        assert (analyzed / f).exists()


def test_analyze_builds_each_structure_once(workdir, tmp_path, monkeypatch):
    calls = {"extract_dependencies": 0, "compute_levels": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    # locate imports both by name, so wrap them there as well
    for module, fn in ((depgraph, depgraph.extract_dependencies),
                       (grouping, grouping.compute_levels)):
        for where in (module, locate):
            monkeypatch.setattr(where, fn.__name__, counted(fn))
    design = workdir / "g" / "design.nl"
    assert run("analyze", "--netlist", str(design), "--lane-width", "16",
               "--out-dir", str(tmp_path)) == 0
    assert calls == {"extract_dependencies": 1, "compute_levels": 1}
    monkeypatch.undo()

    graph = depgraph.extract_dependencies(parse_netlist(design.read_text()))
    groups = grouping.group_by_levels(grouping.compute_levels(graph))
    assert (tmp_path / "scores.csv").read_text() == \
        scoring.dump_scores(scoring.compute_zscores(graph), graph)
    assert (tmp_path / "degrees.csv").read_text() == depgraph.dump_degrees(graph)
    assert (tmp_path / "groups.csv").read_text() == \
        grouping.dump_groups(groups, graph)


def test_each_loaded_netlist_is_indexed_once(workdir, injected, tmp_path,
                                             monkeypatch):
    calls = []
    build = netlist.index_netlist

    def counted(n):
        calls.append(n)
        return build(n)

    # every module that imports index_netlist by name
    for module in list(sys.modules.values()):
        if (module.__name__.startswith("kecscope")
                and getattr(module, "index_netlist", None) is build):
            monkeypatch.setattr(module, "index_netlist", counted)
    victim = str(workdir / "g" / "design.nl")
    trojaned = str(injected / "trojaned.nl")
    assert run("analyze", "--netlist", victim,
               "--lane-width", "16", "--out-dir", str(tmp_path / "a")) == 0
    assert len(calls) == 1

    base = parse_netlist((workdir / "g" / "design.nl").read_text())
    (tmp_path / "quiet.stim").write_text(
        write_stimulus([{p: 0 for p in base.input_ports()}] * 3))
    # the trojaned design extends the victim: the victim is never indexed;
    # the other way round it is indexed and simulated
    for design, baseline, indexes in ((trojaned, victim, 1),
                                      (victim, trojaned, 2)):
        calls.clear()
        out = tmp_path / f"s{indexes}"
        assert run("simulate", "--netlist", design,
                   "--stimulus", str(tmp_path / "quiet.stim"),
                   "--baseline", baseline, "--out-dir", str(out)) == 0
        # one index per netlist, each of a different netlist
        assert len(calls) == len({id(n) for n in calls}) == indexes
        report = json.loads((out / "sim_report.json").read_text())
        assert report["stealth_equal"] is True


def test_analyze_not_present(workdir, tmp_path):
    (tmp_path / "tiny.nl").write_text(
        "module m\ninput clk\ninput pi\noutput po\nnet q\n"
        "cell DFF f1 d=pi clk=clk q=q\ncell BUF b1 a=q y=po\nendmodule\n")
    code = run("analyze", "--netlist", str(tmp_path / "tiny.nl"),
               "--lane-width", "16", "--out-dir", str(tmp_path))
    assert code == 3


def test_analyze_invalid_netlist(tmp_path):
    (tmp_path / "bad.nl").write_text(
        "module m\ninput clk\nnet a\nnet b\n"
        "cell INV i1 a=b y=a\ncell INV i2 a=a y=b\nendmodule\n")
    code = run("analyze", "--netlist", str(tmp_path / "bad.nl"),
               "--out-dir", str(tmp_path))
    assert code == 4


def test_inject_and_reports(injected):
    report = json.loads((injected / "inject_report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["audit"]["removed_cells"] == 0
    audit = json.loads((injected / "eco_audit.json").read_text())
    assert audit["removed_cells"] == [] and audit["removed_nets"] == []


def test_inject_without_result_analyzes_inline(workdir, tmp_path):
    design = ["--netlist", str(workdir / "g" / "design.nl"), "--lane-width", "16"]
    trojan = ["--t", "16", "--l", "16", "--trigger-hex", "beef",
              "--capture-delay", "1"]
    assert run("analyze", *design, "--out-dir", str(tmp_path / "a")) == 0
    assert run("inject", *design, *trojan,
               "--result", str(tmp_path / "a" / "report.json"),
               "--out-dir", str(tmp_path / "r")) == 0
    assert run("inject", *design, *trojan,
               "--out-dir", str(tmp_path / "inline")) == 0
    for name in ("trojaned.nl", "eco_audit.json", "inject_report.json"):
        assert (tmp_path / "inline" / name).read_bytes() == \
            (tmp_path / "r" / name).read_bytes()


def test_inject_result_without_inputs_is_not_found(oracle_w8, tmp_path,
                                                   capsys):
    (tmp_path / "w8.nl").write_text(write_netlist(oracle_w8[0]))
    (tmp_path / "empty.json").write_text(json.dumps(
        {"state_candidates": [], "input_candidates": []}))
    assert run("inject", "--netlist", str(tmp_path / "w8.nl"),
               "--result", str(tmp_path / "empty.json"), "--trigger-hex", "0",
               "--out-dir", str(tmp_path)) == 3
    assert capsys.readouterr().err == "not found: no input register located\n"


def test_inject_budget_exceeded(workdir, analyzed, tmp_path):
    code = run("inject", "--netlist", str(workdir / "g" / "design.nl"),
               "--result", str(analyzed / "report.json"),
               "--lane-width", "16", "--t", "16", "--l", "16",
               "--trigger-hex", "beef", "--capture-delay", "1",
               "--budget-pct", "0.01", "--out-dir", str(tmp_path))
    assert code == 3


def test_inject_invalid_spec(workdir, analyzed, tmp_path, capsys):
    code = run("inject", "--netlist", str(workdir / "g" / "design.nl"),
               "--result", str(analyzed / "report.json"),
               "--t", "128", "--trigger-hex", "0", "--out-dir", str(tmp_path))
    assert code == 2
    assert "error: trigger width 128 not in" in capsys.readouterr().err


def test_simulate_trigger_and_stealth(workdir, injected):
    trojaned = parse_netlist((injected / "trojaned.nl").read_text())
    base = {p: 0 for p in trojaned.input_ports()}

    def word(v):
        return {**base, **{f"data_in0[{z}]": (v >> z) & 1 for z in range(16)}}

    stim = [dict(base)] * 3 + [word(0xBEEF)] + [dict(base)] + [word(0x5AA5)]
    stim += [dict(base)] * 20
    (workdir / "trigger.stim").write_text(write_stimulus(stim))
    code = run("simulate", "--netlist", str(injected / "trojaned.nl"),
               "--stimulus", str(workdir / "trigger.stim"),
               "--baseline", str(workdir / "g" / "design.nl"),
               "--secret-width", "16", "--expect-secret-hex", "5aa5",
               "--out-dir", str(workdir / "s"))
    assert code == 0
    report = json.loads((workdir / "s" / "sim_report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["k_recovered"] is True
    assert report["stealth_equal"] is True
    assert report["leak_cycles"] == 8
    assert (workdir / "s" / "trace.csv").exists()


def test_simulate_without_leak_is_not_recovered(oracle_w8, tmp_path):
    netlist, _ = oracle_w8
    (tmp_path / "w8.nl").write_text(write_netlist(netlist))
    (tmp_path / "quiet.stim").write_text(
        write_stimulus([{p: 0 for p in netlist.input_ports()}] * 4))
    assert run("simulate", "--netlist", str(tmp_path / "w8.nl"),
               "--stimulus", str(tmp_path / "quiet.stim"),
               "--secret-width", "16", "--expect-secret-hex", "5aa5",
               "--out-dir", str(tmp_path)) == 0
    report = json.loads((tmp_path / "sim_report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["leak_cycles"] == 0
    assert report["recovered_secret_hex"] is None
    assert report["k_recovered"] is False


def test_simulate_no_cycles_writes_the_output_header(workdir, tmp_path):
    design = workdir / "g" / "design.nl"
    (tmp_path / "one.stim").write_text("clk=0\n")
    assert run("simulate", "--netlist", str(design), "--stimulus",
               str(tmp_path / "one.stim"), "--cycles", "0",
               "--out-dir", str(tmp_path)) == 0
    ports = sorted(parse_netlist(design.read_text()).output_ports())
    assert ports
    assert (tmp_path / "trace.csv").read_text() == ",".join(
        ["cycle", *ports, "leak", "power_uW"]) + "\n"


def test_simulate_stimulus_too_short(workdir, tmp_path):
    (tmp_path / "short.stim").write_text("clk=0\n")
    code = run("simulate", "--netlist", str(workdir / "g" / "design.nl"),
               "--stimulus", str(tmp_path / "short.stim"),
               "--cycles", "10", "--out-dir", str(tmp_path))
    assert code == 2


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"w": 16, "decoys": 50, "seed": 12}))
    assert run("gen", "--w", "64", "--config", str(cfg),
               "--out-dir", str(tmp_path)) == 0
    truth = json.loads((tmp_path / "design.truth.json").read_text())
    assert truth["lane_width"] == 16
    assert len(truth["decoy_ffs"]) == 50


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run("gen", "--seed", "1", "--config", str(cfg),
               "--out-dir", str(tmp_path)) == 2


def test_analyze_reproducible_modulo_timings(workdir, tmp_path):
    reports = []
    for sub in ("x", "y"):
        out = tmp_path / sub
        assert run("analyze", "--netlist", str(workdir / "g" / "design.nl"),
                   "--lane-width", "16", "--out-dir", str(out)) == 0
        rep = json.loads((out / "report.json").read_text())
        rep.pop("stage_ms")
        rep.pop("total_ms")
        reports.append(rep)
        assert (out / "scores.csv").read_text() == \
            (tmp_path / "x" / "scores.csv").read_text()
    assert reports[0] == reports[1]


def test_reports_reproducible(workdir, tmp_path):
    a, b = tmp_path / "r1", tmp_path / "r2"
    for out in (a, b):
        assert run("gen", "--w", "16", "--decoys", "150", "--seed", "9",
                   "--out-dir", str(out)) == 0
    assert (a / "design.nl").read_text() == (b / "design.nl").read_text()
    assert (a / "design.truth.json").read_text() == \
        (b / "design.truth.json").read_text()


NO_FFS = "module m\ninput a\noutput b\ncell INV i1 a=a y=b\nendmodule\n"
# a flip-flop clocked through an AND2 gate, which the simulator refuses
GATED = ("module g\ninput clk\ninput en\noutput q\nnet gclk\nnet nq\n"
         "cell AND2 g1 a=clk b=en y=gclk\ncell DFF f1 d=nq clk=gclk q=q\n"
         "cell INV i1 a=q y=nq\nendmodule\n")

# netlist file -> (text, what its exit 4 prints on stderr)
INVALID_NETLISTS = {
    "syntax.nl": ("module m\nbogus\nendmodule\n",
                  "error: line 2: unknown keyword 'bogus'"),
    "twice.nl": ("module m\ninput a\noutput b\ncell INV i1 a=a y=b\n"
                 "cell BUF b1 a=a y=b\nendmodule\n",
                 "error: line 5: net 'b' driven twice, by cell 'i1' and "
                 "cell 'b1'"),
    "undriven.nl": ("module m\ninput a\noutput b\nnet n\n"
                    "cell INV i1 a=n y=b\nendmodule\n",
                    "error: line 4: net 'n' driven by nothing"),
    "cycle.nl": ("module m\ninput a\noutput b\nnet n\n"
                 "cell XOR2 x1 a=a b=b y=n\ncell BUF b1 a=n y=b\nendmodule\n",
                 "violation: combinational-cycle: b1,x1"),
}


@pytest.mark.parametrize("argv, code", [
    (["analyze", "--netlist", "{d}/noff.nl"], 3),
    (["analyze", "--netlist", "{d}/noff.nl", "--lane-width", "7"], 2),
    (["inject", "--netlist", "{d}/noff.nl", "--lane-width", "7",
      "--trigger-hex", "0"], 2),
    (["gen", "--seed", "1", "--config", "{d}/decoys_str.json"], 2),
    (["gen", "--seed", "1", "--config", "{d}/missing.json"], 2),
    (["analyze", "--netlist", "{d}/noff.nl", "--sidecar", "{d}/missing.json"], 2),
    (["inject", "--netlist", "{d}/noff.nl", "--result", "{d}/missing.json",
      "--trigger-hex", "0"], 2),
    (["simulate", "--netlist", "{d}/noff.nl", "--stimulus", "{d}/missing.stim"], 2),
    (["analyze", "--netlist", "{d}/binary.nl"], 2),
    (["gen", "--seed", "1", "--config", "{d}/list.json"], 2),
    (["inject", "--netlist", "{d}/noff.nl", "--result", "{d}/list.json",
      "--trigger-hex", "0"], 2),
    (["analyze", "--netlist", "{d}/w8.nl", "--lane-width", "8",
      "--instances", "0"], 2),
    (["analyze", "--netlist", "{d}/w8.nl", "--lane-width", "8",
      "--shares", "0"], 2),
    (["analyze", "--netlist", "{d}/w8.nl", "--lane-width", "8",
      "--fif", "40", "--fic", "2", "--fof", "3"], 2),
    (["simulate", "--netlist", "{d}/w8.nl", "--stimulus", "{d}/w8.stim",
      "--cycles", "-1"], 2),
    (["simulate", "--netlist", "{d}/w8.nl", "--stimulus", "{d}/w8.stim",
      "--expect-secret-hex", "zz"], 2),
    (["simulate", "--netlist", "{d}/w8.nl", "--stimulus", "{d}/w8.stim",
      "--secret-width", "3"], 2),
    (["analyze", "--netlist", "{d}/w8.nl", "--lane-width", "8",
      "--instances", "2"], 3),
    (["analyze", "--netlist", "{d}/w8.nl", "--lane-width", "8",
      "--fif", "1000", "--fof", "1000"], 3),
    (["analyze", "--netlist", "{d}/w8.nl", "--lane-width", "8",
      "--fif", "0", "--fof", "0"], 3),
    (["gen", "--seed", "1", "--w", "1", "--out-dir", "{d}/a_file"], 2),
    (["analyze", "--netlist", "{d}/w8.nl", "--lane-width", "8",
      "--out-dir", "{d}/a_file"], 2),
    (["inject", "--netlist", "{d}/w8.nl", "--result", "{d}/ids_int.json",
      "--trigger-hex", "0"], 2),
    (["inject", "--netlist", "{d}/w8.nl", "--result", "{d}/ids_str.json",
      "--trigger-hex", "0"], 2),
    (["analyze", "--netlist", "{d}/w8.nl", "--lane-width", "8",
      "--sidecar", "{d}/sidecar_int.json"], 2),
    (["inject", "--netlist", "{d}/w8.nl", "--trigger-hex", "0",
      "--budget-pct", "-1"], 2),
    (["inject", "--netlist", "{d}/w8.nl", "--trigger-hex", "0",
      "--budget-pct", "nan"], 2),
    (["inject", "--netlist", "{d}/w8.nl", "--result", "{d}/no_inputs.json",
      "--trigger-hex", "0"], 3),
    (["simulate", "--netlist", "{d}/w8.nl", "--stimulus", "{d}/w8.stim",
      "--expect-secret-hex", "5"], 2),
    (["simulate", "--netlist", "{d}/w8.nl", "--stimulus", "{d}/w8.stim",
      "--secret-width", "16", "--expect-secret-hex", "12345678"], 2),
    (["simulate", "--netlist", "{d}/w8.nl", "--stimulus", "{d}/w8.stim",
      "--secret-width", "16", "--expect-secret-hex", "-5"], 2),
    (["analyze", "--netlist", "{d}/syntax.nl"], 4),
    (["analyze", "--netlist", "{d}/twice.nl"], 4),
    (["analyze", "--netlist", "{d}/undriven.nl"], 4),
    (["analyze", "--netlist", "{d}/cycle.nl"], 4),
    (["gen", "--w", "8"], 2),
    (["simulate", "--netlist", "{d}/w8.nl", "--stimulus", "{d}/w8.stim",
      "--cycles", "2"], 2),
    (["simulate", "--netlist", "{d}/w8.nl", "--stimulus",
      "{d}/unknown_port.stim"], 2),
    (["simulate", "--netlist", "{d}/w8.nl", "--stimulus",
      "{d}/missing_port.stim"], 2),
    (["simulate", "--netlist", "{d}/w8.nl", "--stimulus", "{d}/bit_two.stim"],
     2),
    (["simulate", "--netlist", "{d}/w8.nl", "--stimulus", "{d}/no_equals.stim"],
     2),
    (["simulate", "--netlist", "{d}/gated.nl", "--stimulus", "{d}/gated.stim"],
     2),
    # the netlist is refused before the result is read
    (["inject", "--netlist", "{d}/cycle.nl", "--result", "{d}/no_inputs.json",
      "--trigger-hex", "0"], 4),
    (["simulate", "--netlist", "{d}/cycle.nl", "--stimulus", "{d}/w8.stim"],
     4),
    (["inject", "--netlist", "{d}/w8.nl", "--result", "{d}/repeated.json",
      "--t", "16", "--l", "16", "--trigger-hex", "0"], 3),
    (["simulate", "--netlist", "{d}/w8.nl", "--stimulus",
      "{d}/port_twice.stim"], 2),
], ids=["no-flip-flops", "analyze-lane-width", "inject-lane-width",
        "config-wrong-type", "missing-config", "missing-sidecar",
        "missing-result", "missing-stimulus", "binary-netlist",
        "config-not-object", "result-not-report", "zero-instances",
        "zero-shares", "floor-above-ceiling", "negative-cycles",
        "bad-secret-hex", "secret-width-not-allowed", "exhausted-search",
        "empty-override-window", "no-input-register", "gen-out-dir-is-a-file",
        "analyze-out-dir-is-a-file", "result-ids-not-a-list",
        "result-ids-a-string", "sidecar-ids-not-a-list", "negative-budget",
        "nan-budget", "result-no-input-register", "expect-secret-without-width",
        "expect-secret-wider-than-width", "expect-secret-negative",
        "syntax-error", "net-driven-twice", "undriven-net",
        "combinational-cycle", "gen-without-seed", "cycles-beyond-stimulus",
        "stimulus-unknown-port", "stimulus-missing-port", "stimulus-bit-two",
        "stimulus-item-without-equals", "simulate-gated-clock",
        "inject-combinational-cycle",
        "simulate-combinational-cycle", "result-repeated-attach-point",
        "stimulus-port-twice"])
def test_exit_codes_are_total(tmp_path, capsys, oracle_w8, argv, code):
    (tmp_path / "noff.nl").write_text(NO_FFS)
    (tmp_path / "gated.nl").write_text(GATED)
    (tmp_path / "gated.stim").write_text("clk=0 en=1\n")
    netlist, _ = oracle_w8
    (tmp_path / "w8.nl").write_text(write_netlist(netlist))
    quiet = {p: 0 for p in netlist.input_ports()}
    (tmp_path / "w8.stim").write_text(write_stimulus([quiet]))
    (tmp_path / "unknown_port.stim").write_text(
        write_stimulus([{**quiet, "nope": 0}]))
    first = next(iter(quiet))
    (tmp_path / "missing_port.stim").write_text(f"{first}=0\n")
    (tmp_path / "bit_two.stim").write_text(f"{first}=2\n")
    (tmp_path / "no_equals.stim").write_text(f"{first}\n")
    (tmp_path / "port_twice.stim").write_text(
        write_stimulus([quiet]).replace(f"{first}=0", f"{first}=0 {first}=1"))
    (tmp_path / "decoys_str.json").write_text(json.dumps({"decoys": "5"}))
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "binary.nl").write_bytes(b"module m\n\xff\xfe\nendmodule\n")
    (tmp_path / "a_file").write_text("")
    (tmp_path / "ids_int.json").write_text(json.dumps(
        {"state_candidates": [], "input_candidates": 5}))
    (tmp_path / "ids_str.json").write_text(json.dumps(
        {"state_candidates": "abc", "input_candidates": []}))
    (tmp_path / "no_inputs.json").write_text(json.dumps(
        {"state_candidates": [], "input_candidates": []}))
    # one flip-flop as all 16 attach points of a 16-bit trojan
    (tmp_path / "repeated.json").write_text(json.dumps(
        {"state_candidates": [],
         "input_candidates": [netlist.flip_flops()[0].name] * 16}))
    (tmp_path / "sidecar_int.json").write_text(json.dumps(
        {"lane_width": 8, "instances": [{"state_ffs": 5, "input_ffs": []}]}))
    for name, (text, _) in INVALID_NETLISTS.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(d=tmp_path) for a in argv]
    if "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path)]
    # run() catches SystemExit only, so any other exception fails the test
    assert run(*argv) == code
    err = capsys.readouterr().err
    if code == 3:
        assert "not found:" in err
    if code == 2:
        assert "error:" in err
    if code == 4:
        netlist_file = Path(argv[argv.index("--netlist") + 1]).name
        assert INVALID_NETLISTS[netlist_file][1] in err.splitlines()


def test_one_cycle_is_one_error_with_one_text():
    # the index refuses the loop, and every stage that reads it raises
    # that error; validate returns it; the CLI prints it after "violation"
    n = parse_netlist(INVALID_NETLISTS["cycle.nl"][0])
    stimulus = [{"a": 0}]
    stages = {
        "index": lambda: n.index,
        "extract_dependencies": lambda: depgraph.extract_dependencies(n),
        "simulate": lambda: simulate(n, stimulus, 1, check=False),
        "checked_simulate": lambda: simulate(n, stimulus, 1, check=True),
        "equivalence_check": lambda: equivalence_check(n, n, stimulus, 1),
    }
    text = "combinational-cycle: b1,x1"
    assert INVALID_NETLISTS["cycle.nl"][1] == "violation: " + text
    for stage, call in stages.items():
        with pytest.raises(netlist.CombinationalCycleError) as e:
            call()
        assert isinstance(e.value, netlist.NetlistError), stage
        assert e.value.__context__ is None, stage
        assert str(e.value) == text, stage
    [error] = validate(n)
    assert type(error) is netlist.CombinationalCycleError
    assert str(error) == text


@pytest.mark.parametrize("argv, code", [
    (["gen", "--w", "8"], 2),
    (["gen", "--seed", "1", "--config", "{d}/missing.json"], 2),
    (["gen", "--seed", "1", "--config", "{d}/unknown_key.json"], 2),
    (["analyze", "--netlist", "{d}/noff.nl", "--fif", "1"], 2),
    (["analyze", "--netlist", "{d}/cycle.nl"], 4),
], ids=["gen-without-seed", "missing-config", "unknown-config-key",
        "fif-without-fof", "combinational-cycle"])
def test_main_returns_the_codes_it_chooses(tmp_path, argv, code):
    # only argparse raises SystemExit, for a flag it rejects; main returns
    # every code its failure table chooses
    (tmp_path / "noff.nl").write_text(NO_FFS)
    (tmp_path / "cycle.nl").write_text(INVALID_NETLISTS["cycle.nl"][0])
    (tmp_path / "unknown_key.json").write_text(json.dumps({"bogus": 1}))
    assert main([a.format(d=tmp_path) for a in argv]
                + ["--out-dir", str(tmp_path)]) == code


# baseline -> (its text, the exit code, and stealth_equal or what stderr
# prints) of simulate --netlist NO_FFS (an INV from a to b) --baseline it
BASELINES = {
    "same": (NO_FFS, 0, True),
    # it extends NO_FFS, by one cell and one net, not the other way
    # round: structure cannot decide, and the simulated check finds them
    # equal
    "extended": ("module m\ninput a\noutput b\nnet n\ncell INV i1 a=a y=b\n"
                 "cell BUF b1 a=a y=n\nendmodule\n", 0, True),
    "buf": (NO_FFS.replace("INV", "BUF"), 0, False),
    "ports": (NO_FFS.replace("input a", "input a\ninput c"), 2,
              "error: designs expose different primary ports"),
    # every cell the netlist's, but a net nothing drives
    "undriven": (NO_FFS.replace("output b", "output b\nnet n"), 4,
                 "error: line 4: net 'n' driven by nothing"),
    "twice": (INVALID_NETLISTS["twice.nl"][0], 4,
              INVALID_NETLISTS["twice.nl"][1]),
    "syntax": (INVALID_NETLISTS["syntax.nl"][0], 4,
               "error: line 2: unknown keyword 'bogus'"),
    # the same ports, but a loop: structure cannot decide, and the
    # baseline's validation fails
    "cycle": (INVALID_NETLISTS["cycle.nl"][0], 4,
              INVALID_NETLISTS["cycle.nl"][1]),
}


def _open_fds():
    """How many file descriptors this process holds, or None where
    /proc/self/fd is absent."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def _simulate_both_ways(monkeypatch, capsys, out, *argv, child_dies=False):
    """Run ``simulate`` with ``argv`` twice, into ``out``/background and
    ``out``/serial: once with a second CPU, so that a forked child decides
    ``sim.extends``, and once with one CPU, so that none does. Check that
    no child or file descriptor outlives either run, that this process
    calls ``extends`` only where no child was forked, and that both give
    the same exit code, stderr, trace.csv and sim_report.json; return
    that exit code and stderr, and per way the netlists parsed and the
    ``extends`` calls made in this process. With ``child_dies``, the
    child kills itself in ``extends``, before any verdict."""
    fork, extends, pid = os.fork, sim.extends, os.getpid()
    runs, parsed, extended = [], {}, {}
    for way, cpus in (("background", {0, 1}), ("serial", {0})):
        forks, parses, calls = [], [], []

        def counted_fork():
            forks.append(way)
            return fork()

        def counted_parse(text):
            parses.append(text)
            return parse_netlist(text)

        def counted_extends(netlist, baseline):
            if os.getpid() != pid and child_dies:
                os.kill(os.getpid(), signal.SIGKILL)
            calls.append(way)
            return extends(netlist, baseline)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(cli, "parse_netlist", counted_parse)
        monkeypatch.setattr(sim, "extends", counted_extends)
        fds = _open_fds()
        code = run("simulate", *argv, "--out-dir", str(out / way))
        monkeypatch.undo()
        assert _open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # argv names a baseline and a netlist that parses: one child, if a
        # second CPU is there; a child's own calls land in its own copy
        # of the list
        assert forks == ([way] if way == "background" else [])
        if way == "background":
            assert calls == []
        files = {f: (out / way / f).read_bytes()
                 for f in ("trace.csv", "sim_report.json")
                 if (out / way / f).exists()}
        runs.append((code, capsys.readouterr().err, files))
        parsed[way], extended[way] = len(parses), len(calls)
    assert runs[0] == runs[1]
    code, err, _ = runs[0]
    return code, err, parsed, extended


def _parses(text):
    try:
        parse_netlist(text)
    except netlist.NetlistError:
        return False
    return True


@pytest.mark.parametrize("baseline, child_dies", [
    pytest.param(b, dies, id=f"{b}-child-dies" if dies else b)
    for dies in (False, True) for b in sorted(BASELINES)])
def test_simulate_baseline_verdicts(tmp_path, capsys, monkeypatch, baseline,
                                    child_dies):
    text, code, outcome = BASELINES[baseline]
    (tmp_path / "inv.nl").write_text(NO_FFS)
    (tmp_path / "b.nl").write_text(text)
    (tmp_path / "a.stim").write_text("a=0\na=1\n")
    got, err, parsed, extended = _simulate_both_ways(
        monkeypatch, capsys, tmp_path, "--netlist", str(tmp_path / "inv.nl"),
        "--stimulus", str(tmp_path / "a.stim"),
        "--baseline", str(tmp_path / "b.nl"), child_dies=child_dies)
    assert got == code
    if code:
        assert outcome in err.splitlines()
    else:
        report = json.loads(
            (tmp_path / "serial" / "sim_report.json").read_text())
        assert report["stealth_equal"] is outcome
    # whatever the child's verdict, this process never repeats extends;
    # a child killed before its verdict sends every baseline to the
    # simulated check, which parses it here
    assert extended == {"background": 0, "serial": int(_parses(text))}
    if child_dies:
        assert parsed == {"background": 2, "serial": 2}


@pytest.mark.parametrize("roles", ["trojaned-on-victim", "victim-on-trojaned"])
def test_simulate_the_generated_pair_both_ways(workdir, injected, tmp_path,
                                              capsys, monkeypatch, roles):
    victim = str(workdir / "g" / "design.nl")
    trojaned = str(injected / "trojaned.nl")
    design, baseline = ((trojaned, victim) if roles == "trojaned-on-victim"
                        else (victim, trojaned))
    ports = sorted(parse_netlist(Path(victim).read_text()).input_ports())
    rng = random.Random(4)
    (tmp_path / "r.stim").write_text(write_stimulus(
        [{p: rng.randrange(2) for p in ports} for _ in range(6)]))
    code, err, parsed, extended = _simulate_both_ways(
        monkeypatch, capsys, tmp_path, "--netlist", design,
        "--stimulus", str(tmp_path / "r.stim"), "--baseline", baseline)
    assert (code, err) == (0, "")
    report = json.loads((tmp_path / "serial" / "sim_report.json").read_text())
    assert report["stealth_equal"] is True
    # the child's true verdict spares this process the baseline's parse;
    # no verdict for the victim, which does not extend the trojaned design
    assert parsed == ({"background": 1, "serial": 2}
                      if roles == "trojaned-on-victim"
                      else {"background": 2, "serial": 2})
    # either verdict leaves extends to the child alone; a false one sends
    # the baseline straight to the simulated check
    assert extended == {"background": 0, "serial": 1}


def test_simulate_forks_no_child_beside_another_thread(tmp_path,
                                                      monkeypatch):
    # a fork copies only the calling thread, and Python 3.12 warns of it
    (tmp_path / "inv.nl").write_text(NO_FFS)
    (tmp_path / "a.stim").write_text("a=0\n")
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        code = run("simulate", "--netlist", str(tmp_path / "inv.nl"),
                   "--stimulus", str(tmp_path / "a.stim"),
                   "--baseline", str(tmp_path / "inv.nl"),
                   "--out-dir", str(tmp_path))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert (code, forks) == (0, [])
    report = json.loads((tmp_path / "sim_report.json").read_text())
    assert report["stealth_equal"] is True


@pytest.mark.parametrize("design, stimulus, baseline, code, err", [
    # the stimulus is read before any baseline
    ("inv.nl", "none.stim", "none.nl", 2, "error: cannot read stimulus file"),
    ("inv.nl", "none.stim", "syntax.nl", 2,
     "error: cannot read stimulus file"),
    # the netlist's index refuses the loop whatever the baseline
    ("cycle.nl", "a.stim", "inv.nl", 4, "violation:"),
    ("cycle.nl", "a.stim", "cycle.nl", 4, "violation:"),
    ("cycle.nl", "a.stim", "none.nl", 4, "violation:"),
    ("cycle.nl", "a.stim", "syntax.nl", 4, "violation:"),
    ("inv.nl", "a.stim", "inv.nl", 0, ""),
])
def test_simulate_errors_keep_their_order_and_leave_no_child(
        tmp_path, capsys, monkeypatch, design, stimulus, baseline, code, err):
    (tmp_path / "inv.nl").write_text(NO_FFS)
    (tmp_path / "a.stim").write_text("a=0\n")
    for name in ("cycle.nl", "syntax.nl"):
        (tmp_path / name).write_text(INVALID_NETLISTS[name][0])
    got, stderr, _, _ = _simulate_both_ways(
        monkeypatch, capsys, tmp_path, "--netlist", str(tmp_path / design),
        "--stimulus", str(tmp_path / stimulus),
        "--baseline", str(tmp_path / baseline))
    assert got == code
    assert stderr.startswith(err) and stderr.count("\n") == (code != 0)


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["simulate", "--netlist", "{d}/inv.nl", "--stimulus", "{d}/a.stim"], 0),
    (["simulate", "--netlist", "{d}/inv.nl", "--stimulus", "{d}/none.stim"],
     2),
    (["simulate", "--netlist", "{d}/inv.nl", "--stimulus", "{d}/a.stim",
      "--cycles", "-1"], 2),
    (["analyze", "--netlist", "{d}/inv.nl"], 3),
    (["analyze", "--netlist", "{d}/twice.nl"], 4),
    (["analyze", "--netlist", "{d}/syntax.nl"], 4),
], ids=["ok", "usage-exit", "usage-failure", "not-found", "invalid",
        "syntax"])
def test_main_runs_without_the_cyclic_collector_and_restores_it(
        tmp_path, monkeypatch, collecting, argv, code):
    (tmp_path / "inv.nl").write_text(NO_FFS)
    (tmp_path / "a.stim").write_text("a=0\n")
    for name in ("twice.nl", "syntax.nl"):
        (tmp_path / name).write_text(INVALID_NETLISTS[name][0])
    seen = []

    def parse(text):
        seen.append(gc.isenabled())
        return parse_netlist(text)

    monkeypatch.setattr(cli, "parse_netlist", parse)
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert run(*(a.format(d=tmp_path) for a in argv),
                   "--out-dir", str(tmp_path)) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()
    assert seen == [False]


@pytest.mark.parametrize("collecting", [True, False])
def test_an_exception_no_failure_matches_propagates_and_restores_the_collector(
        tmp_path, monkeypatch, collecting):
    # a defect is no exit code: it keeps its traceback
    def broken(cfg):
        raise RuntimeError("a defect")

    monkeypatch.setattr(cli, "generate_accelerator", broken)
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="^a defect$"):
            main(["gen", "--seed", "1", "--out-dir", str(tmp_path)])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()


SMALL = GenConfig(w=16, decoy_ffs=500, seed=3)


@pytest.fixture(scope="module")
def small_attack():
    victim, _ = generate_accelerator(SMALL)
    result, _ = run_pipeline(victim, PipelineConfig(lane_width=16))
    spec = HthSpec(t=16, l=16, trigger=0xBEEF, capture_delay=1)
    trojaned, _ = insert_hth(victim, result, spec)
    return {"victim": victim, "result": result, "spec": spec,
            "trojaned": trojaned,
            "stimulus": [dict.fromkeys(trojaned.input_ports(), 0)] * 4}


# every stage a command runs; replace(n) is a new netlist with no index
STAGES = {
    "generate_accelerator": lambda a: generate_accelerator(SMALL),
    "anonymize": lambda a: anonymize(a["victim"], 1),
    "write_and_parse": lambda a: parse_netlist(write_netlist(a["victim"])),
    "validate": lambda a: validate(replace(a["victim"])),
    "run_pipeline": lambda a: run_pipeline(replace(a["victim"]),
                                           PipelineConfig(lane_width=16)),
    "insert_hth": lambda a: insert_hth(a["victim"], a["result"], a["spec"]),
    "simulate": lambda a: simulate(replace(a["trojaned"]), a["stimulus"], 4),
}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_no_stage_leaves_a_reference_cycle(small_attack, stage):
    # what main may run with the cyclic collector off: its result dropped,
    # a stage must leave nothing only that collector could free
    before = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        STAGES[stage](small_attack)
        assert gc.collect() == 0
    finally:
        if before:
            gc.enable()


def test_main_leaves_no_argparse_object_in_a_cycle(tmp_path):
    # the argparse tree is a web of reference cycles: built once per
    # process and kept, none of it is left for the cyclic collector (its
    # construction leaves a few dozen formatters, once)
    (tmp_path / "inv.nl").write_text(NO_FFS)
    cli.build_parser()
    before = gc.isenabled()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):
            assert run("analyze", "--netlist", str(tmp_path / "inv.nl"),
                       "--out-dir", str(tmp_path)) == 3
        gc.collect()
        left = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if before:
            gc.enable()
    assert left == []


# the edits of the mutation fuzzer: any line, then cell lines only
FUZZ_EDITS = ("delete", "duplicate", "truncate", "swap-tokens")
FUZZ_CELL_EDITS = ("kind", "rewire", "swap-pins", "append")


def _mutant(text, rng):
    """``text`` with one seeded edit: a line deleted, duplicated or cut
    short, or two of its tokens swapped; or a cell line's kind changed,
    an input pin rewired to a cell output, two of its pins swapped, or a
    tag or a repeated pin appended. A rewired pin reads, one time in two,
    the output of a cell that reads this one, which closes a loop."""
    lines = text.splitlines()
    edit = rng.choice(FUZZ_EDITS + FUZZ_CELL_EDITS)
    if edit in FUZZ_EDITS:
        i = rng.randrange(len(lines))
    else:
        # the writer puts a cell's output pin last, after its inputs
        i = rng.choice([i for i, line in enumerate(lines)
                        if line.startswith("cell ") and line.count("=") > 1])
    tok = lines[i].split()
    if edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "truncate":
        lines[i] = lines[i][:rng.randrange(len(lines[i]))]
    elif edit == "kind":
        tok[1] = rng.choice(sorted(netlist.CELL_KINDS))
    elif edit == "rewire":
        out = tok[-1].split("=")[1]
        readers = [line.split()[-1] for line in lines
                   if line.startswith("cell ") and f"={out} " in line]
        outputs = [line.split()[-1] for line in lines
                   if line.startswith("cell ")]
        pin = rng.randrange(3, len(tok) - 1)
        net = rng.choice(readers if readers and rng.random() < 0.5
                         else outputs).split("=")[1]
        tok[pin] = tok[pin].split("=")[0] + "=" + net
    elif edit == "append":
        tok.append(rng.choice(["tag=" + netlist.ANALOG_ISLAND_TAG, tok[3]]))
    elif len(tok) > 1:   # swap-tokens anywhere, swap-pins after the name
        a, b = rng.sample(range(3 if edit == "swap-pins" else 0, len(tok)), 2)
        tok[a], tok[b] = tok[b], tok[a]
    if edit not in ("delete", "duplicate", "truncate"):
        lines[i] = " ".join(tok)
    return "\n".join(lines) + "\n"


def test_mutated_netlists_end_in_documented_exit_codes(tmp_path, capsys):
    # seeded edits of a generated design and of its trojaned form, each
    # through analyze, inject and simulate --baseline: every run returns
    # 0, 2, 3 or 4 and none raises (run() catches SystemExit only)
    assert run("gen", "--w", "16", "--seed", "5",
               "--out-dir", str(tmp_path / "g")) == 0
    victim = tmp_path / "g" / "design.nl"
    assert run("inject", "--netlist", str(victim), "--lane-width", "16",
               "--t", "16", "--l", "16", "--trigger-hex", "beef",
               "--capture-delay", "1", "--out-dir", str(tmp_path / "i")) == 0
    ports = parse_netlist(victim.read_text()).input_ports()
    (tmp_path / "quiet.stim").write_text(
        write_stimulus([dict.fromkeys(ports, 0)] * 3))
    rng = random.Random(19)
    seen = Counter()
    capsys.readouterr()
    for source in (victim, tmp_path / "i" / "trojaned.nl"):
        text = source.read_text()
        for _ in range(30):
            mutant = tmp_path / "mutant.nl"
            mutant.write_text(_mutant(text, rng))
            design = ["--netlist", str(mutant), "--lane-width", "16",
                      "--out-dir", str(tmp_path / "out")]
            for argv in (["analyze", *design],
                         ["inject", *design, "--t", "16", "--l", "16",
                          "--trigger-hex", "beef", "--capture-delay", "1"],
                         ["simulate", "--netlist", str(mutant),
                          "--stimulus", str(tmp_path / "quiet.stim"),
                          "--baseline", str(victim),
                          "--out-dir", str(tmp_path / "out")]):
                code = run(*argv)
                assert code in (0, 2, 3, 4), argv[0]
                seen[code] += 1
                err = capsys.readouterr().err
                if err.startswith("violation: combinational-cycle: "):
                    seen["cycle"] += 1
    # more than the parser: some mutants run, some are refused as cyclic
    assert seen[0] and seen[3] and seen["cycle"], seen


# run in a fresh interpreter: tests share this one's sys.modules
LOADED = """
import sys
{code}
print(*sorted(m for m in sys.modules if m.startswith("kecscope.")))
"""


def _modules_loaded(code, *argv):
    """The kecscope modules loaded after ``code`` runs, with ``argv`` as
    its sys.argv[1:], in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", LOADED.format(code=code), *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    return {m.removeprefix("kecscope.")
            for m in proc.stdout.splitlines()[-1].split()}


def test_importing_the_package_loads_no_module():
    assert _modules_loaded("import kecscope") == set()


@pytest.mark.parametrize("command, runs, unloaded", [
    ("analyze", {"locate", "truth"}, {"trojan", "generator"}),
    ("simulate", {"sim"}, {"locate", "depgraph", "grouping", "scoring",
                           "trojan", "generator"}),
    # a result read back needs no analysis
    ("inject", {"trojan"}, {"locate", "depgraph", "grouping", "scoring"}),
])
def test_each_command_loads_only_the_modules_it_runs(
        workdir, analyzed, injected, tmp_path, command, runs, unloaded):
    victim = str(workdir / "g" / "design.nl")
    if command == "analyze":
        argv = ["analyze", "--netlist", victim, "--lane-width", "16",
                "--sidecar", str(workdir / "g" / "design.truth.json")]
    elif command == "inject":
        argv = ["inject", "--netlist", victim,
                "--result", str(analyzed / "report.json"),
                "--t", "16", "--l", "16", "--trigger-hex", "beef"]
    else:
        ports = parse_netlist(Path(victim).read_text()).input_ports()
        (tmp_path / "quiet.stim").write_text(
            write_stimulus([dict.fromkeys(ports, 0)] * 3))
        argv = ["simulate", "--netlist", str(injected / "trojaned.nl"),
                "--stimulus", str(tmp_path / "quiet.stim"),
                "--baseline", victim, "--secret-width", "16"]
    loaded = _modules_loaded(
        "from kecscope import cli\nassert cli.main(sys.argv[1:]) == 0",
        *argv, "--out-dir", str(tmp_path))
    assert runs <= loaded
    assert not loaded & unloaded, loaded & unloaded


# the names a wrapper may replace on cli, as the benchmark's tracer does
ENTRY_POINTS = {
    "generate_accelerator": "gen", "anonymize": "gen", "write_netlist": "gen",
    "parse_netlist": "analyze", "run_pipeline": "analyze",
    "insert_hth": "inject", "overhead_report": "inject",
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_wrapper_set_on_cli_is_the_one_called(workdir, analyzed, tmp_path,
                                                monkeypatch, name):
    fn = getattr(cli, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    victim = str(workdir / "g" / "design.nl")
    argv = {
        "gen": ["gen", "--w", "8", "--seed", "1", "--anonymize-seed", "2"],
        "analyze": ["analyze", "--netlist", victim, "--lane-width", "16"],
        "inject": ["inject", "--netlist", victim,
                   "--result", str(analyzed / "report.json"),
                   "--lane-width", "16", "--t", "16", "--l", "16",
                   "--trigger-hex", "beef"],
    }[ENTRY_POINTS[name]]
    assert run(*argv, "--out-dir", str(tmp_path)) == 0
    assert calls
    monkeypatch.undo()
    assert getattr(cli, name) is fn
    # a name cli does not hold is missing, as getattr(cli, name, None) needs
    with pytest.raises(AttributeError):
        cli.validate
