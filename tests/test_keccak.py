import random

import pytest

from kecscope.keccak import (KeccakState, LANE_WIDTHS, keccak_f, num_rounds,
                             permute_bitwise, rho_offsets, round_constants,
                             round_fn, round_sources)

# keccak-f[1600] applied to the all-zero state, first lanes of the canonical
# test vector; cross-checked here against two independent implementations
ZERO_STATE_LANES = [
    0xF1258F7940E1DDE7, 0x84D5CCF933C0478A, 0xD598261EA65AA9EE,
    0xBD1547306F80494D, 0x8B284E056253D057,
]

# canonical iota constants for w=64
IOTA_64 = [
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
]


@pytest.mark.parametrize("w,rounds", [(1, 12), (2, 14), (4, 16), (8, 18),
                                      (16, 20), (32, 22), (64, 24)])
def test_round_counts(w, rounds):
    assert num_rounds(w) == rounds


def test_round_constants_match_canonical_table():
    assert round_constants(64) == IOTA_64


def test_rho_offsets_canonical_spot_checks():
    off = rho_offsets()
    assert off[(0, 0)] == 0
    assert off[(1, 0)] == 1
    assert off[(2, 1)] % 64 == 6
    assert off[(1, 1)] % 64 == 44
    assert len(off) == 25


def test_zero_state_vector_w64():
    out = keccak_f(KeccakState(64, [0] * 25))
    assert out.lanes[:5] == ZERO_STATE_LANES


@pytest.mark.parametrize("w", [1, 2, 8, 64])
def test_two_implementations_agree(w):
    rng = random.Random(w)
    for _ in range(5):
        s = KeccakState(w, [rng.getrandbits(w) for _ in range(25)])
        assert permute_bitwise(s) == keccak_f(s)


def test_permutation_is_injective_spot_check():
    rng = random.Random(7)
    seen = set()
    for _ in range(20):
        s = KeccakState(64, [rng.getrandbits(64) for _ in range(25)])
        seen.add(tuple(keccak_f(s).lanes))
    assert len(seen) == 20


def test_state_validation():
    for w, lanes in ((3, [0] * 25), (8, [0] * 24), (8, [1 << 8] + [0] * 24)):
        with pytest.raises(ValueError):
            KeccakState(w, lanes)


def round_sinks(sources):
    """The transpose of ``round_sources``: per id, the ascending ids of the
    bits whose new value reads it."""
    sinks = [[] for _ in sources]
    for i, srcs in enumerate(sources):
        for j in srcs:
            sinks[j].append(i)
    return sinks


def test_dependency_sets_w64():
    sources = round_sources(64)
    assert len(sources[0]) == 33
    assert 0 in sources[0]  # depends on 32 others and itself
    assert {len(s) for s in sources} == {33}
    assert {len(s) for s in round_sinks(sources)} == {33}


def test_dependency_sets_transpose_consistent():
    # each list holds distinct ascending ids of the state, and their
    # transpose gives every bit a reader
    for w in (2, 8):
        sources = round_sources(w)
        assert all(s == sorted(set(s)) and 0 <= s[0] and s[-1] < 25 * w
                   for s in sources)
        assert all(round_sinks(sources))


def test_small_widths_can_collide():
    assert min(len(s) for s in round_sources(2)) < 33


@pytest.mark.parametrize("w", LANE_WIDTHS)
def test_dependency_set_sizes_bounded(w):
    sources = round_sources(w)
    assert all(len(s) <= 33 for s in sources)
    assert all(len(s) <= 33 for s in round_sinks(sources))
    assert len(sources) == 25 * w


def test_round_sources_rejects_bad_width():
    # one check, lane_log, so each caller refuses w in the same words
    for reject in (round_sources, num_rounds, lambda w: KeccakState(w, [0] * 25)):
        with pytest.raises(ValueError, match="^unsupported lane width 3$"):
            reject(3)


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_round_sources_match_flipped_round(w):
    # the differential gate of the reference: flip each input bit of a
    # seeded random state through round_fn; output bit i changes only
    # when j is one of its sources, and every source shows a change
    def flat(state):
        return sum(lane << k * w for k, lane in enumerate(state.lanes))
    rng = random.Random(w)
    seen = [set() for _ in range(25 * w)]
    for _ in range(32):
        s = KeccakState(w, [rng.getrandbits(w) for _ in range(25)])
        rc = rng.getrandbits(w)
        base = flat(round_fn(s, rc))
        for j in range(25 * w):
            lanes = list(s.lanes)
            lanes[j // w] ^= 1 << j % w
            diff = base ^ flat(round_fn(KeccakState(w, lanes), rc))
            for i in range(25 * w):
                if diff >> i & 1:
                    seen[i].add(j)
    assert [sorted(s) for s in seen] == round_sources(w)
