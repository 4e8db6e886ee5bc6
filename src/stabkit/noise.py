"""Code-capacity noise: one per-qubit Pauli channel and counter-based draws.

A `NoiseModel` applies X, Y and Z with probabilities p_x, p_y and p_z to
each qubit independently; `iid_x`, `iid_xz` and `depolarizing` build one,
and `CHANNELS` maps a sweep's noise kind to its constructor of p.

Draw contract: trial t of a Monte Carlo point with seed s uses the
SplitMix64 stream that starts at ``derive_seed(s, t)``.  Its draw j is
``derive_seed(derive_seed(s, t), j)``, read as a uniform in [0, 1) from its
top 53 bits.  Draws are a function of (s, t, j) alone, so a run gives the
same counts for any worker count, chunking or batch size.  `_words` hashes
a whole batch's draw words at once in wrapping uint64 numpy arithmetic
(`derive_seeds`), and `sample_batch` tests them without building floats.

Each qubit, in qubit order, takes one uniform u under every channel: an X
component iff u < p_x + p_y, a Z component iff p_x <= u < p_x + p_y + p_z
(`_bounds`, shared by the scalar `sample` and `sample_batch`, so the two
cannot disagree; `sample_batch` tests u < t on u's word w as the equal
w < ceil(t 2^53) 2^11, see there).  Fixed-seed iid_x and depolarizing
streams match earlier releases; iid_xz ones do not, as iid_xz used to draw
a second uniform for its Z flip.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pauli import PauliOperator

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def derive_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit stream seed for (master_seed, index)."""
    z = (master_seed + _GAMMA * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seeds(master_seed, index) -> np.ndarray:
    """`derive_seed` over uint64 arrays, broadcasting `master_seed` against
    `index`; the arithmetic wraps mod 2^64 exactly as the scalar masks."""
    master = np.asarray(master_seed, dtype=np.uint64)
    index = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):  # numpy warns on wrapping scalars only
        z = np.asarray(master + np.uint64(_GAMMA) * (index + np.uint64(1)))
    for shift, mix in ((30, _MIX1), (27, _MIX2)):  # in place: only the shifts allocate
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mix)
    z ^= z >> np.uint64(31)
    return z


def _words(pieces, count: int) -> np.ndarray:
    """(trials, count) uint64: draws 0..count-1 of each piece's trials."""
    lengths = [b - a for *_, a, b in pieces]
    seeds = np.repeat(np.array([s & _MASK64 for *_, s, _, _ in pieces], dtype=np.uint64), lengths)
    trials = np.concatenate([np.arange(a, b, dtype=np.uint64) for *_, a, b in pieces])
    return derive_seeds(derive_seeds(seeds, trials)[:, None], np.arange(count, dtype=np.uint64))


@dataclass(frozen=True)
class NoiseModel:
    """One Pauli channel on every qubit: X, Y and Z with probabilities p_x,
    p_y and p_z.  headline_rate is the grid rate a sweep reports for it."""

    p_x: float
    p_y: float
    p_z: float
    headline_rate: float

    def __post_init__(self):
        for value in (self.p_x, self.p_y, self.p_z):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"probability {value} outside [0, 1]")
        total = self.p_x + self.p_y + self.p_z
        if total > 1.0:
            raise ValueError(f"channel probabilities sum to {total} > 1")


def iid_x(p_x: float) -> NoiseModel:
    return NoiseModel(p_x, 0.0, 0.0, p_x)


def iid_xz(p_x: float, p_z: float) -> NoiseModel:
    """Independent X and Z flips per qubit; Y arises as the coincidence."""
    return NoiseModel(p_x * (1.0 - p_z), p_x * p_z, p_z * (1.0 - p_x), p_x)


def depolarizing(p: float) -> NoiseModel:
    """X, Y, Z each with probability p/3."""
    # p - 2(p/3) is exact and differs from p/3 by rounding only; with it the
    # windows of `_bounds` close at exactly p, as fixed-seed streams expect.
    third = p / 3.0
    return NoiseModel(third, third, p - 2.0 * third, p)


CHANNELS: dict[str, Callable[[float], NoiseModel]] = {
    "iid_x": iid_x,
    "iid_xz": lambda p: iid_xz(p, p),
    "depolarizing": depolarizing,
}


def _bounds(model: NoiseModel) -> tuple[float, float, float]:
    """(x_hi, z_lo, z_hi): a qubit's uniform u gives an X component iff
    u < x_hi and a Z component iff z_lo <= u < z_hi."""
    x_hi = model.p_x + model.p_y
    return x_hi, model.p_x, x_hi + model.p_z


def sample(model: NoiseModel, n: int, rng: random.Random) -> PauliOperator:
    """One error draw; per-qubit draws are made in qubit order."""
    x_hi, z_lo, z_hi = _bounds(model)
    x = z = 0
    for q in range(n):
        u = rng.random()
        if u < x_hi:
            x |= 1 << q
        if z_lo <= u < z_hi:
            z |= 1 << q
    return PauliOperator(n, x, z, 0)


def sample_batch(n: int, pieces) -> tuple[np.ndarray, np.ndarray]:
    """(trials, n) boolean X and Z arrays (column q-1 is qubit q) of the
    pieces (model, point_seed, start, stop), trials start..stop-1 of a
    point each.  A bound t tests u's word w: with k = w >> 11, u < t iff
    k < t 2^53 (exact) iff w < ceil(t 2^53) 2^11; at t = 1.0 that is the
    Python int 2^64, which numpy compares with uint64 words exactly."""
    words, x, z, row = _words(pieces, n), [], [], 0
    for model, _, a, b in pieces:
        w, row = words[row : row + b - a], row + b - a
        x_hi, z_lo, z_hi = (math.ceil(t * 2.0**53) << 11 for t in _bounds(model))
        x.append(w < x_hi)
        z.append((z_lo <= w) & (w < z_hi))
    return np.concatenate(x), np.concatenate(z)
