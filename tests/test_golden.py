"""Golden emission: the sha256 of netlist text plus sidecar for a few fixed
designs. Blind designs and benchmark inputs depend on the exact cell, net
and name order the generator emits, so a refactor of the generator or the
insertion must leave these digests unchanged. A deliberate change of
emission order updates them here, in one place. One more digest pins the
trace and report of a small attack simulated through the CLI, so a
rewrite of the simulator must reproduce them byte for byte."""

import hashlib

import pytest

from kecscope.cli import main
from kecscope.generator import GenConfig, generate_accelerator, generate_core
from kecscope.locate import RepqcResult
from kecscope.netlist import anonymize, parse_netlist, write_netlist
from kecscope.sim import write_stimulus
from kecscope.trojan import HthSpec, insert_hth


def _digest(netlist, record):
    text = write_netlist(netlist) + "\n" + record.to_json()
    return hashlib.sha256(text.encode()).hexdigest()


def _generated(**kw):
    return _digest(*generate_accelerator(GenConfig(**kw)))


def _anonymized():
    netlist, truth = generate_accelerator(GenConfig(w=8, decoy_ffs=150, seed=4))
    blind, rename = anonymize(netlist, 5)
    return _digest(blind, truth.remap(rename))


def _inserted():
    netlist, truth = generate_accelerator(GenConfig(w=16, decoy_ffs=100, seed=2))
    result = RepqcResult(frozenset(truth.all_state_ffs()), truth.all_input_ffs(),
                         None, "grouped", 400)
    spec = HthSpec(t=16, l=16, trigger=0xBEEF, capture_delay=1)
    return _digest(*insert_hth(netlist, result, spec, reset_net="rst"))


GOLDEN = {
    "one-share-w8-decoys": (
        lambda: _generated(w=8, decoy_ffs=300, seed=1),
        "2dd75b88fd2b0920dc99b44291ee53a6db76942e817d6b00ab77c0f2d7a3b733"),
    "masked-w8-2-instances": (
        lambda: _generated(w=8, shares=2, instances=2, seed=2),
        "71707a231dfb0285c474571486b0769a5b2e1f34bdf336eeb85579912f3f8bd2"),
    "split-loader-w8": (
        lambda: _generated(w=8, loader="split", decoy_ffs=50, seed=3),
        "e8dcaa3f5e41a2a0025fa89b607b679837c55ff63fd54c1150623c27859b0662"),
    "anonymized-w8": (
        _anonymized,
        "3a3bedc50c9a7355495854935cf49dbb91b8a51e10a0837f6e03bd276b1c5431"),
    "core-w8": (
        lambda: _digest(*generate_core(8)),
        "d543012a35a9c1d7e0f0b23b4517ea003dc03cdb91079266385c845082c0a9af"),
    "insert-hth-w16": (
        _inserted,
        "e9a51597601a859f52d8d1096c39ed6f1d374702b74f3bbb3896730738ee094f"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_emission_is_pinned(case):
    build, expected = GOLDEN[case]
    assert build() == expected


def _attack_digests(root):
    """sha256 of ``trace.csv`` and ``sim_report.json`` of a small named
    attack through the CLI: ``gen --w 16``, ``analyze``, ``inject`` a
    16-bit trigger with a 16-bit leak, and ``simulate --baseline`` of the
    trigger word followed by the secret word. Paths are relative to
    ``root``, since the report records the netlist path."""
    design = ["--lane-width", "16"]
    for argv in (["gen", "--w", "16", "--decoys", "100", "--seed", "5",
                  "--out-dir", "g"],
                 ["analyze", "--netlist", "g/design.nl", *design,
                  "--out-dir", "a"],
                 ["inject", "--netlist", "g/design.nl", *design,
                  "--result", "a/report.json", "--t", "16", "--l", "16",
                  "--trigger-hex", "beef", "--capture-delay", "1",
                  "--out-dir", "i"]):
        assert main(argv) == 0
    quiet = dict.fromkeys(
        parse_netlist((root / "i" / "trojaned.nl").read_text()).input_ports(), 0)

    def word(v):
        return {**quiet, **{f"data_in0[{z}]": (v >> z) & 1 for z in range(16)}}

    stim = [quiet] * 3 + [word(0xBEEF), quiet, word(0x5AA5)] + [quiet] * 14
    (root / "t.stim").write_text(write_stimulus(stim))
    assert main(["simulate", "--netlist", "i/trojaned.nl", "--stimulus",
                 "t.stim", "--baseline", "g/design.nl", "--secret-width",
                 "16", "--expect-secret-hex", "5aa5", "--out-dir", "s"]) == 0
    return {name: hashlib.sha256((root / "s" / name).read_bytes()).hexdigest()
            for name in ("trace.csv", "sim_report.json")}


def test_simulation_trace_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _attack_digests(tmp_path) == {
        "trace.csv":
            "324757b6d490bc0b27bcae3ef99db4a865b71932807d89e4f1b9f19feca6b5e6",
        "sim_report.json":
            "2aa6c8e2b817d9431f8eb46ee471ca7a51ce2262d5a6e9ae683a2b85bbc0d3cf",
    }
