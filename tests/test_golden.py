"""Golden emission: the sha256 of netlist text plus sidecar for a few fixed
designs. Blind designs and benchmark inputs depend on the exact cell, net
and name order the generator emits, so a refactor of the generator or the
insertion must leave these digests unchanged. A deliberate change of
emission order updates them here, in one place."""

import hashlib

import pytest

from kecscope.generator import GenConfig, generate_accelerator, generate_core
from kecscope.locate import RepqcResult
from kecscope.netlist import anonymize, write_netlist
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
                         None, "grouped", 16, 400)
    spec = HthSpec(t=16, l=16, trigger=0xBEEF, capture_delay=1)
    return _digest(*insert_hth(netlist, result, spec, reset_net="rst"))


GOLDEN = {
    "one-share-w8-decoys": (
        lambda: _generated(w=8, decoy_ffs=300, seed=1),
        "a8c37f86c10f598d4013da696e5f69b1372ec7b8ba7193f336ba5e13a03946b2"),
    "masked-w8-2-instances": (
        lambda: _generated(w=8, shares=2, instances=2, seed=2),
        "a49aa9eb3cf87581e79ec34c75e2fc9a9ec5e58730dd0a3701a0f9ace2967ebf"),
    "split-loader-w8": (
        lambda: _generated(w=8, loader="split", decoy_ffs=50, seed=3),
        "0987a8a437f430181f306aacb5aa07e59cf7ba12c06ae8d2280f0112f8722e38"),
    "anonymized-w8": (
        _anonymized,
        "30303ff41ad50e69d3cdd92b073b5e3af330b2a6762ee53e39e2bd888b00d8dc"),
    "core-w8": (
        lambda: _digest(*generate_core(8)),
        "a21ed3f769fcb60f01afe02bb062ecc3ab0559ff7fa86a30d6839d66fe08593d"),
    "insert-hth-w16": (
        _inserted,
        "e9a51597601a859f52d8d1096c39ed6f1d374702b74f3bbb3896730738ee094f"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_emission_is_pinned(case):
    build, expected = GOLDEN[case]
    assert build() == expected
