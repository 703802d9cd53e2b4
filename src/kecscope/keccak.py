"""Keccak-f[b] reference permutation and one-round structural dependency sets.

The state is a 5x5xw bit array, b = 25*w, w = 2**l for l in 0..6. One
permutation applies 12+2l rounds of theta, rho, pi, chi, iota.

Two permutation implementations live here on purpose: the lane-integer one
(`keccak_f`) is the production reference, and `permute_bitwise` recomputes
the same function bit-by-bit from the per-step definitions so the two can be
cross-checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

LANE_WIDTHS = (1, 2, 4, 8, 16, 32, 64)


def _lane_log(w: int) -> int:
    """l for lane width w = 2**l."""
    if w not in LANE_WIDTHS:
        raise ValueError(f"unsupported lane width {w}")
    return LANE_WIDTHS.index(w)


def num_rounds(w: int) -> int:
    """12 + 2*l rounds for lane width w = 2**l."""
    return 12 + 2 * _lane_log(w)


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
    l = _lane_log(w)
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
        if self.w not in LANE_WIDTHS:
            raise ValueError(f"unsupported lane width {self.w}")
        if len(self.lanes) != 25:
            raise ValueError("state needs exactly 25 lanes")
        mask = (1 << self.w) - 1
        if any(v & ~mask for v in self.lanes):
            raise ValueError("lane value wider than w")

    @classmethod
    def zero(cls, w):
        return cls(w, [0] * 25)

    def bit(self, x, y, z):
        return (self.lanes[x + 5 * y] >> z) & 1

    def to_bits(self):
        return {(x, y, z): self.bit(x, y, z)
                for x in range(5) for y in range(5) for z in range(self.w)}


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


def permute_bitwise(bits: dict[tuple[int, int, int], int], w: int):
    """Independent second implementation: per-bit triple loops over the
    step definitions. Used only to cross-check `keccak_f`."""
    a = {(x, y, z): bits.get((x, y, z), 0) & 1
         for x in range(5) for y in range(5) for z in range(w)}
    offsets = rho_offsets()
    for ir in range(num_rounds(w)):
        # theta
        col = {}
        for x in range(5):
            for z in range(w):
                p = 0
                for y in range(5):
                    p ^= a[(x, y, z)]
                col[(x, z)] = p
        t = {}
        for x in range(5):
            for y in range(5):
                for z in range(w):
                    t[(x, y, z)] = (a[(x, y, z)]
                                    ^ col[((x - 1) % 5, z)]
                                    ^ col[((x + 1) % 5, (z - 1) % w)])
        # rho
        r = {}
        for x in range(5):
            for y in range(5):
                for z in range(w):
                    r[(x, y, (z + offsets[(x, y)]) % w)] = t[(x, y, z)]
        # pi
        p = {}
        for x in range(5):
            for y in range(5):
                for z in range(w):
                    p[(x, y, z)] = r[((x + 3 * y) % 5, x, z)]
        # chi
        nxt = {}
        for x in range(5):
            for y in range(5):
                for z in range(w):
                    nxt[(x, y, z)] = p[(x, y, z)] ^ (
                        (1 ^ p[((x + 1) % 5, y, z)]) & p[((x + 2) % 5, y, z)])
        # iota
        rc = round_constants(w)[ir]
        for z in range(w):
            nxt[(0, 0, z)] ^= (rc >> z) & 1
        a = nxt
    return a


Bit = tuple[int, int, int]


def round_dependency_sets(w: int) -> tuple[dict[Bit, frozenset[Bit]],
                                           dict[Bit, frozenset[Bit]]]:
    """Symbolic one-round expansion: for every state bit, the exact set of
    state bits its new value structurally depends on (sources), and the
    transpose (sinks). Iota adds constants only and contributes nothing.
    """
    if w not in LANE_WIDTHS:
        raise ValueError(f"unsupported lane width {w}")
    offsets = rho_offsets()
    sources: dict[Bit, frozenset[Bit]] = {}
    sinks: dict[Bit, set[Bit]] = {
        (x, y, z): set() for x in range(5) for y in range(5) for z in range(w)}
    for x in range(5):
        for y in range(5):
            for z in range(w):
                srcs = set()
                # chi output (x,y,z) reads the pi/rho image at lanes
                # x, x+1, x+2 of row y; trace each back through theta.
                for dx in (0, 1, 2):
                    bx = (x + dx) % 5
                    px, py = (bx + 3 * y) % 5, bx
                    pz = (z - offsets[(px, py)]) % w
                    srcs.add((px, py, pz))
                    for yy in range(5):
                        srcs.add(((px - 1) % 5, yy, pz))
                        srcs.add(((px + 1) % 5, yy, (pz - 1) % w))
                sources[(x, y, z)] = frozenset(srcs)
                for s in srcs:
                    sinks[s].add((x, y, z))
    return sources, {b: frozenset(s) for b, s in sinks.items()}
