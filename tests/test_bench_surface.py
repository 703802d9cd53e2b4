"""The library calls the benchmark makes, run as the benchmark makes them.

``perfbench/layers.py`` replays the analysis stage by stage and splits the
simulator's cost, calling ``validate``, ``extract_dependencies``,
``clever_search``, both localizers, ``results_equivalent`` and
``simulate(check=)`` by name. The benchmark's files are loaded here by path
and left as they are, so a change to any of those names or signatures
fails tier-1 and not only a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

from kecscope.generator import GenConfig, generate_accelerator
from kecscope.locate import PipelineConfig, run_pipeline
from kecscope.netlist import anonymize, parse_netlist, write_netlist

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_and_simulator_split_run_on_a_blind_design():
    spans, layers = _load("spans"), _load("layers")
    declared = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    blind, _ = anonymize(
        generate_accelerator(GenConfig(w=8, decoy_ffs=150, seed=4))[0], 5)
    text = write_netlist(blind)
    tracer = spans.Tracer("guard")

    netlist, result, metrics, problems = layers.replay_analysis(tracer, text, 8)
    assert problems == []
    assert result.found()
    assert set(metrics) <= declared
    pipeline, _ = run_pipeline(parse_netlist(text), PipelineConfig(lane_width=8))
    assert layers.check_replay(result, pipeline,
                               pipeline.input_candidates) == []

    stimulus = [dict.fromkeys(netlist.input_ports(), 0)] * 4
    trace, split = layers.sim_split(tracer, netlist, stimulus, 4)
    assert len(trace.outputs) == 4
    assert set(split) == {"sim.setup_ms", "sim.per_cycle_ms", "sim.check_ms",
                          "sim.cell_evals", "sim.ns_per_cell_eval"}
    assert set(split) <= declared
