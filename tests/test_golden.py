"""Golden emission: the sha256 of netlist text plus sidecar for a few fixed
designs. Blind designs and benchmark inputs depend on the exact cell, net
and name order the generator emits, so a refactor of the generator or the
insertion must leave these digests unchanged. A deliberate change of
emission order updates them here, in one place. One more digest pins the
trace and report of a small attack simulated through the CLI, so a
rewrite of the simulator must reproduce them byte for byte."""

import hashlib
import json

import pytest

from kecscope.cli import main
from kecscope.generator import GenConfig, generate_accelerator, generate_core
from kecscope.netlist import anonymize, parse_netlist, write_netlist
from kecscope.sim import write_stimulus
from kecscope.trojan import HthSpec, insert_hth
from kecscope.truth import RepqcResult


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
        "6dd3b08154530ef31b3150695ccaeb8c86f886e7244b8c00dbcc471d731944a0"),
    "masked-w8-2-instances": (
        lambda: _generated(w=8, shares=2, instances=2, seed=2),
        "c138ededf061e033018a67cc788cc950598399aa6adbbcc35b78fa846aa16e61"),
    "split-loader-w8": (
        lambda: _generated(w=8, loader="split", decoy_ffs=50, seed=3),
        "36a9b669c213323298dc580dbf957d0147305122004a16a16b2620bae176d3b2"),
    "anonymized-w8": (
        _anonymized,
        "3267b78fc70b18799914993e9bb074ad8e942c7b0bf84fde48905485842b62b6"),
    "core-w8": (
        lambda: _digest(*generate_core(8)),
        "d543012a35a9c1d7e0f0b23b4517ea003dc03cdb91079266385c845082c0a9af"),
    "insert-hth-w16": (
        _inserted,
        "1c356f07a413214b1eebbddc570ba9abfbaa22a2cf38d0f0d50708908e1df2d8"),
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


def _analyze_digests(root, blind=True, **kw):
    """sha256 of the three CSVs of ``analyze`` and of its report without
    ``stage_ms`` and ``total_ms``, on ``GenConfig(w=8, decoy_ffs=150,
    seed=4, **kw)``, anonymized with seed 5 when ``blind``. Paths are
    relative to ``root``, since the report records the netlist path."""
    netlist, _ = generate_accelerator(GenConfig(w=8, decoy_ffs=150, seed=4,
                                                **kw))
    if blind:
        netlist, _ = anonymize(netlist, 5)
    (root / "design.nl").write_text(write_netlist(netlist))
    assert main(["analyze", "--netlist", "design.nl", "--lane-width", "8",
                 "--out-dir", "a"]) == 0
    digests = {name: hashlib.sha256((root / "a" / name).read_bytes()).hexdigest()
               for name in ("scores.csv", "degrees.csv", "groups.csv")}
    report = json.loads((root / "a" / "report.json").read_text())
    del report["stage_ms"], report["total_ms"]
    digests["report.json"] = hashlib.sha256(
        json.dumps(report, indent=1).encode()).hexdigest()
    return report["variant"], digests


ANALYZE_GOLDEN = {
    "absorb": ("grouped", {
        "scores.csv":
            "4db12b09b9972430afa554d36b8be74c7a57c5407ffe62426b9e3f35c191cf7e",
        "degrees.csv":
            "6222ec09cec0df44bed435be5e18ef511b2a0c1522d2a13b96a152a9f2494c06",
        "groups.csv":
            "2a8c4a2b6893d92034aede4d9b4d50fcdbe1b294e6c5b0f5234d72864bec649e",
        "report.json":
            "80242f0b4d3c8e4c0a18fba32ce1a121f92c78d9f5f1a92dd2b02d5c90f6db17",
    }),
    "split": ("individual", {
        "scores.csv":
            "78244b50b129504610d325ae41b88ae76ff86324b5dd4548a57392f8f9e11be2",
        "degrees.csv":
            "d783491bf9c21e96780cc9998c7908146a3952284e89a2be46b634d9f8e313ff",
        "groups.csv":
            "a386d29f1318338d3435f133f58de2f9d73ead8fc646a7e7e8b6675f59212934",
        "report.json":
            "d649e28c1dd8a6b7e8be811e6b94dfe6726538d1607093dfbd9831209affdcde",
    }),
}


@pytest.mark.parametrize("loader", sorted(ANALYZE_GOLDEN))
def test_analysis_outputs_are_pinned(loader, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _analyze_digests(tmp_path, loader=loader) == ANALYZE_GOLDEN[loader]


# the same designs with their names. These outputs name only flip-flops,
# so they hold while the generator's other cells change; the anonymized
# digests above move with the cell count, which permutes the ids
NAMED_ANALYZE_GOLDEN = {
    "absorb": ("grouped", {
        "scores.csv":
            "2a60fac8916da198a82ce606a2979d14e05dc2aa88978be216297de314af5ab4",
        "degrees.csv":
            "b01685afc4857e8bd4200c48b90aa311f15546b29924080781697929c8d561f0",
        "groups.csv":
            "63f6e1d310bababf238d4ffd5471f3cba2af7d5e94a0447c790a3cbb2f3c54ca",
        "report.json":
            "377f3600c9fe3fc9e934cc666483dc504773d96b6930b372a566f9e2c5f6f53d",
    }),
    "split": ("individual", {
        "scores.csv":
            "a7d07b463bdfcfcc3d5e98375123669a78f5eb0ce2950058fe9386b42ee8039f",
        "degrees.csv":
            "51ccf874474cb50e7c8493a3ca80af8fb149a33ec97de472098f6b6a0834921f",
        "groups.csv":
            "d662ab779ee4309b94662966cfd47e8ff7eee46ec95b03c6fe858aa6bd313385",
        "report.json":
            "4df970219f17e92617488db8fd127fab222a81037ec540707d6b9ca1514af52b",
    }),
}


@pytest.mark.parametrize("loader", sorted(NAMED_ANALYZE_GOLDEN))
def test_named_analysis_outputs_are_pinned(loader, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert (_analyze_digests(tmp_path, blind=False, loader=loader)
            == NAMED_ANALYZE_GOLDEN[loader])
