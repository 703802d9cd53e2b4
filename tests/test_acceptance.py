"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line with its elapsed time and checked at the stated tolerance
and time budget."""

import random
import time
from contextlib import contextmanager

from kecscope import keccak
from kecscope.depgraph import extract_dependencies
from kecscope.generator import (GenConfig, generate_accelerator, generate_core,
                                state_bit_index)
from kecscope.locate import (PipelineConfig, derive_bounds,
                             filter_state_candidates, naive_bounds,
                             remap_result, results_equivalent, run_pipeline)
from kecscope.netlist import anonymize, validate
from kecscope.sim import equivalence_check, simulate
from kecscope.trojan import (HthSpec, insert_hth, overhead_report,
                             reconstruct_secret)

from named import Named
from test_generator import MIN_FANIN_FLOOR, permute_init, read_state


@contextmanager
def criterion(num, text, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {text} "
              f"({time.perf_counter() - t0:.1f}s)")
        raise
    dt = time.perf_counter() - t0
    print(f"PASS criterion {num}: {text} ({dt:.1f}s)")
    assert dt < budget_s, f"criterion {num} exceeded {budget_s}s budget: {dt:.1f}s"


def test_criterion_1_structural_floors():
    with criterion(1, "state fanin exactly 33 at w=64; derived floors (33, 34)", 60):
        core, truth = generate_core(64)
        graph = Named(extract_dependencies(core))
        state = truth.all_state_ffs()
        assert len(state) == 1600
        assert all(graph.fanin(f) == 33 for f in state)
        sources, sinks = keccak.round_dependency_sets(64)
        assert len(sources[(0, 0, 0)]) == 33
        assert {len(s) for s in sources.values()} == {33}
        assert derive_bounds(64) == (33, 34)


def test_criterion_2_functional_oracle():
    with criterion(2, "netlist rounds == reference permutation, 100 states, "
                      "w in {8, 64}; reference cross-checked", 300):
        rng = random.Random(2024)
        # the reference is itself checked against an independently written
        # bit-level implementation before it judges the netlists
        for w, n in ((8, 10), (64, 5)):
            for _ in range(n):
                s = keccak.KeccakState(w, [rng.getrandbits(w) for _ in range(25)])
                alt = keccak.permute_bitwise(s.to_bits(), w)
                ref = keccak.keccak_f(s)
                assert all(ref.bit(x, y, z) == alt[(x, y, z)]
                           for x in range(5) for y in range(5) for z in range(w))
        for w in (8, 64):
            netlist, truth = generate_accelerator(GenConfig(w=w, seed=0))
            states = [keccak.KeccakState(w, [rng.getrandbits(w) for _ in range(25)])
                      for _ in range(100)]
            rounds = keccak.num_rounds(w)
            init = permute_init(netlist, truth, states)
            stim = [{p: 0 for p in netlist.input_ports()}] * (rounds + 1)
            cells = netlist.cells_by_name()
            watch = [cells[f].pins["q"] for f in truth.instances[0].state_ffs]
            trace = simulate(netlist, stim, rounds + 1, watch=watch,
                             init=init, batch=100)
            for lane, s in enumerate(states):
                assert read_state(netlist, truth, trace, rounds, lane).lanes \
                    == keccak.keccak_f(s).lanes


def test_criterion_3_superset_guarantee():
    with criterion(3, "20 seeded designs: naive and clever recall 1.0, "
                      "clever |candidates| <= 1.05 * 1600", 600):
        for i in range(20):
            decoys = 5000 + (15000 * i) // 19
            netlist, truth = generate_accelerator(
                GenConfig(w=64, decoy_ffs=decoys, seed=100 + i))
            graph = Named(extract_dependencies(netlist))
            assert max(map(graph.fanin, truth.decoy_ffs)) < MIN_FANIN_FLOOR
            labeled = set(truth.all_state_ffs())
            naive = graph.names(filter_state_candidates(graph.graph,
                                                        naive_bounds(64)))
            assert labeled <= naive
            result, _ = run_pipeline(netlist, PipelineConfig(lane_width=64))
            assert labeled <= result.state_candidates
            assert len(result.state_candidates) <= 1.05 * 1600


def test_criterion_4_input_localization(oracle_w64):
    with criterion(4, "grouped variant exact on clean designs; split fixture "
                      "falls back to individual", 300):
        netlist, truth = oracle_w64
        result, _ = run_pipeline(netlist, PipelineConfig(lane_width=64))
        assert result.variant == "grouped"
        assert sorted(result.input_candidates) == sorted(truth.all_input_ffs())
        second, truth2 = generate_accelerator(
            GenConfig(w=64, decoy_ffs=8000, seed=19))
        r2, _ = run_pipeline(second, PipelineConfig(lane_width=64))
        assert r2.variant == "grouped"
        assert sorted(r2.input_candidates) == sorted(truth2.all_input_ffs())

        split, truth3 = generate_accelerator(
            GenConfig(w=64, decoy_ffs=2000, seed=5, loader="split"))
        from kecscope.grouping import compute_levels, group_by_levels
        from kecscope.locate import (clever_search, locate_inputs_grouped,
                                     locate_inputs_individual)
        from kecscope.scoring import compute_zscores
        graph = extract_dependencies(split)
        scores = compute_zscores(graph)
        groups = group_by_levels(compute_levels(graph))
        _, ckff = clever_search(graph, 64)
        grouped = locate_inputs_grouped(scores, groups, graph, ckff, 64)
        assert not grouped.found()
        individual = locate_inputs_individual(scores, graph, ckff, 64)
        assert sorted(individual.input_candidates) == \
            sorted(truth3.all_input_ffs())


def test_criterion_5_masked_and_multi_instance():
    with criterion(5, "2 shares: 3200/3200 exact; 3 instances: 4800 found, "
                      "|candidates| <= 1.02 * 4800", 600):
        masked, truth = generate_accelerator(
            GenConfig(w=64, shares=2, decoy_ffs=3000, seed=11))
        result, _ = run_pipeline(masked, PipelineConfig(lane_width=64, shares=2))
        labeled = set(truth.all_state_ffs())
        assert len(labeled) == 3200
        assert labeled <= result.state_candidates
        assert len(result.state_candidates) == 3200

        multi, truth3 = generate_accelerator(
            GenConfig(w=64, instances=3, decoy_ffs=3000, seed=13))
        r3, _ = run_pipeline(multi, PipelineConfig(lane_width=64, instances=3))
        labeled3 = set(truth3.all_state_ffs())
        assert len(labeled3) == 4800
        assert labeled3 <= r3.state_candidates
        assert len(r3.state_candidates) <= 1.02 * 4800


def test_criterion_6_end_to_end_attack(oracle_w64):
    with criterion(6, "trigger then secret reconstructs exactly over 32 leak "
                      "cycles; dormant run is output-equivalent", 300):
        netlist, _ = oracle_w64
        result, _ = run_pipeline(netlist, PipelineConfig(lane_width=64))
        m = 0x5A5A_C3C3_0F0F_9696
        k = 0xDEAD_BEEF_1234_5678
        spec = HthSpec(t=64, l=64, trigger=m, capture_delay=2)
        trojaned, _ = insert_hth(netlist, result, spec)
        base = {p: 0 for p in trojaned.input_ports()}

        def word(v):
            d = dict(base)
            d.update({f"data_in0[{z}]": (v >> z) & 1 for z in range(64)})
            return d

        stim = [dict(base)] * 3 + [word(m)] + [dict(base)] * spec.capture_delay
        stim += [word(k)] + [dict(base)] * 40
        trace = simulate(trojaned, stim, len(stim))
        assert len(trace.leak_symbols()) == 32
        assert reconstruct_secret(trace, 64) == k
        assert equivalence_check(netlist, trojaned, stim, len(stim))

        rng = random.Random(6)
        dormant = [dict(base)] + [word(rng.getrandbits(64)) for _ in range(15)]
        dormant += [dict(base)] * 10
        dtrace = simulate(trojaned, dormant, len(dormant))
        assert dtrace.leak_symbols() == []
        assert equivalence_check(netlist, trojaned, dormant, len(dormant))


def test_criterion_7_trigger_brute_force():
    with criterion(7, "all 2^16 words on a reduced victim: exactly one "
                      "activates the leak phase", 600):
        netlist, truth = generate_accelerator(
            GenConfig(w=16, decoy_ffs=200, seed=2))
        result, _ = run_pipeline(netlist, PipelineConfig(lane_width=16))
        m = 0xBEE5
        spec = HthSpec(t=16, l=16, trigger=m, capture_delay=1)
        trojaned, _ = insert_hth(netlist, result, spec)
        batch = 1 << 16
        vec = {p: 0 for p in trojaned.input_ports()}
        for z in range(16):
            bits = 0
            for w_ in range(batch):
                bits |= ((w_ >> z) & 1) << w_
            vec[f"data_in0[{z}]"] = bits
        quiet = {p: 0 for p in trojaned.input_ports()}
        stim = [dict(quiet), vec] + [dict(quiet)] * 10
        trace = simulate(trojaned, stim, len(stim), batch=batch)
        fired = 0
        for raw in trace.island_raw:
            if raw is not None:
                fired |= raw[0]
        assert fired.bit_count() == 1
        assert fired.bit_length() - 1 == m


def test_criterion_8_eco_additivity_and_overhead():
    with criterion(8, "zero removals; T=64/L=64 delta <= 1% of a >=50k-cell "
                      "design", 60):
        netlist, truth = generate_accelerator(
            GenConfig(w=64, decoy_ffs=27000, seed=23))
        assert netlist.cell_count() >= 50_000
        result, _ = run_pipeline(netlist, PipelineConfig(lane_width=64))
        spec = HthSpec(t=64, l=64, trigger=0x1234_5678_9ABC_DEF0)
        trojaned, edit = insert_hth(netlist, result, spec)
        assert edit.removed_cells == [] and edit.removed_nets == []
        before = {(c.kind, c.name, tuple(sorted(c.pins.items())))
                  for c in netlist.cells}
        after = {(c.kind, c.name, tuple(sorted(c.pins.items())))
                 for c in trojaned.cells}
        assert before <= after
        report = overhead_report(netlist, trojaned, budget_pct=1.0)
        assert report["delta_pct"] <= 1.0
        assert report["fits"] is True


def test_criterion_9_anonymization_invariance(oracle_w64):
    with criterion(9, "pipeline output invariant under anonymization, "
                      "5 seeds", 300):
        netlist, _ = oracle_w64
        reference, _ = run_pipeline(netlist, PipelineConfig(lane_width=64))
        for seed in range(5):
            blind, rename = anonymize(netlist, seed)
            assert validate(blind) == []
            result, _ = run_pipeline(blind, PipelineConfig(lane_width=64))
            assert results_equivalent(remap_result(reference, rename), result)


def test_criterion_10_performance_sanity():
    with criterion(10, "full pipeline on a ~12k-flip-flop design in < 60 s", 60):
        netlist, truth = generate_accelerator(
            GenConfig(w=64, decoy_ffs=10250, seed=31))
        ff_count = len(netlist.flip_flops())
        assert 11_000 <= ff_count <= 13_000
        t0 = time.perf_counter()
        result, _ = run_pipeline(netlist, PipelineConfig(lane_width=64))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        assert sorted(result.input_candidates) == sorted(truth.all_input_ffs())
