"""Keccak-f[b] reference permutation and the one-round structural reference.

The state is a 5x5xw bit array, b = 25*w, w = 2**l for l in 0..6. One
permutation applies 12+2l rounds of theta, rho, pi, chi, iota. Bit
(x, y, z) has the flat id (x + 5y)*w + z, the order in which a sidecar
lists one share's state flip-flops; `round_sources` gives, per id, the ids
that one round reads.

Two permutation implementations live here on purpose: the lane-integer one
(`keccak_f`) is the production reference, and `permute_bitwise` recomputes
the same function bit-by-bit from the per-step definitions so the two can be
cross-checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

LANE_WIDTHS = (1, 2, 4, 8, 16, 32, 64)


def lane_log(w: int) -> int:
    """l for lane width w = 2**l; any other w raises ValueError."""
    if w not in LANE_WIDTHS:
        raise ValueError(f"unsupported lane width {w}")
    return LANE_WIDTHS.index(w)


def num_rounds(w: int) -> int:
    """12 + 2*l rounds for lane width w = 2**l."""
    return 12 + 2 * lane_log(w)


def rho_offsets() -> dict[tuple[int, int], int]:
    """Rotation offset per lane (x, y), generated from the t-recurrence."""
    off = {(0, 0): 0}
    x, y = 1, 0
    for t in range(24):
        off[(x, y)] = (t + 1) * (t + 2) // 2
        x, y = y, (2 * x + 3 * y) % 5
    return off


_RHO = rho_offsets()


def _rc_bit(t: int) -> int:
    # degree-8 LFSR over GF(2): x^8 + x^6 + x^5 + x^4 + 1
    if t % 255 == 0:
        return 1
    r = 0x01
    for _ in range(t % 255):
        r <<= 1
        if r & 0x100:
            r ^= 0x171
    return r & 1


def round_constants(w: int) -> list[int]:
    """Iota lane constants for rounds 0..12+2l-1, as w-bit integers."""
    l = lane_log(w)
    rcs = []
    for ir in range(num_rounds(w)):
        rc = 0
        for j in range(l + 1):
            if _rc_bit(j + 7 * ir):
                rc |= 1 << ((1 << j) - 1)
        rcs.append(rc)
    return rcs


@dataclass
class KeccakState:
    """5x5xw bit state; ``lanes[x + 5*y]`` is the w-bit lane at (x, y)."""

    w: int
    lanes: list[int]

    def __post_init__(self):
        lane_log(self.w)
        if len(self.lanes) != 25:
            raise ValueError("state needs exactly 25 lanes")
        mask = (1 << self.w) - 1
        if any(v & ~mask for v in self.lanes):
            raise ValueError("lane value wider than w")

    def bit(self, x, y, z):
        return (self.lanes[x + 5 * y] >> z) & 1


def _rotl(v, n, w):
    n %= w
    mask = (1 << w) - 1
    return ((v << n) | (v >> (w - n))) & mask if n else v


def round_fn(state: KeccakState, rc: int) -> KeccakState:
    """One round of theta, rho, pi, chi, iota on lane integers."""
    w = state.w
    a = state.lanes
    c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20] for x in range(5)]
    d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1, w) for x in range(5)]
    a = [a[x + 5 * y] ^ d[x] for y in range(5) for x in range(5)]
    b = [0] * 25
    for y in range(5):
        for x in range(5):
            # pi: out(x, y) takes rho-rotated lane ((x + 3y) % 5, x)
            px, py = (x + 3 * y) % 5, x
            b[x + 5 * y] = _rotl(a[px + 5 * py], _RHO[(px, py)], w)
    mask = (1 << w) - 1
    out = [
        b[x + 5 * y] ^ ((~b[(x + 1) % 5 + 5 * y] & mask) & b[(x + 2) % 5 + 5 * y])
        for y in range(5)
        for x in range(5)
    ]
    out[0] ^= rc
    return KeccakState(w, out)


def keccak_f(state: KeccakState) -> KeccakState:
    """The full keccak-f[25*w] permutation (12+2l rounds)."""
    for rc in round_constants(state.w):
        state = round_fn(state, rc)
    return state


def permute_bitwise(state: KeccakState) -> KeccakState:
    """Independent second implementation: one dict per step, each bit
    computed from the step definitions. Used only to cross-check
    `keccak_f`."""
    w = state.w
    bits = [(x, y, z) for x in range(5) for y in range(5) for z in range(w)]
    a = {(x, y, z): state.bit(x, y, z) for x, y, z in bits}
    for rc in round_constants(w):
        col = {(x, z): a[(x, 0, z)] ^ a[(x, 1, z)] ^ a[(x, 2, z)]
               ^ a[(x, 3, z)] ^ a[(x, 4, z)] for x in range(5) for z in range(w)}
        theta = {(x, y, z): a[(x, y, z)] ^ col[((x - 1) % 5, z)]
                 ^ col[((x + 1) % 5, (z - 1) % w)] for x, y, z in bits}
        rho = {(x, y, (z + _RHO[(x, y)]) % w): theta[(x, y, z)]
               for x, y, z in bits}
        pi = {(x, y, z): rho[((x + 3 * y) % 5, x, z)] for x, y, z in bits}
        # chi, then iota on lane (0, 0)
        a = {(x, y, z): pi[(x, y, z)]
             ^ ((1 ^ pi[((x + 1) % 5, y, z)]) & pi[((x + 2) % 5, y, z)])
             ^ (rc >> z & 1 if x == y == 0 else 0) for x, y, z in bits}
    return KeccakState(w, [sum(a[(x, y, z)] << z for z in range(w))
                           for y in range(5) for x in range(5)])


def round_sources(w: int) -> list[list[int]]:
    """Symbolic one-round expansion over flat state ids (x + 5y)*w + z:
    for every id, in id order, the ascending ids of the state bits its new
    value structurally depends on. Iota adds constants only and contributes
    nothing.
    """
    lane_log(w)
    sources = []
    for y in range(5):
        for x in range(5):
            # chi output (x, y, z) reads the pi/rho image at lanes x, x+1,
            # x+2 of row y; theta makes each read its own bit, column
            # px-1 at pz and column px+1 at pz-1
            reads = [((bx + 3 * y) % 5, bx) for bx in (x, (x + 1) % 5, (x + 2) % 5)]
            for z in range(w):
                srcs = set()
                for px, py in reads:
                    pz = (z - _RHO[(px, py)]) % w
                    srcs.add((px + 5 * py) * w + pz)
                    for c, cz in (((px - 1) % 5, pz), ((px + 1) % 5, (pz - 1) % w)):
                        srcs.update(range(c * w + cz, 25 * w, 5 * w))
                sources.append(sorted(srcs))
    return sources
