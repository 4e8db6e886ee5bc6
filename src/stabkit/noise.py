"""Code-capacity Pauli channels and the counter-based per-trial draws.

Draw contract: trial t of a Monte Carlo point with seed s uses the
SplitMix64 stream that starts at ``derive_seed(s, t)``.  Its draw j is
``derive_seed(derive_seed(s, t), j)``, read as a uniform in [0, 1) from its
top 53 bits.  Draws are a function of (s, t, j) alone, so a run gives the
same counts for any worker count, chunking or batch size.  `uniforms`
computes them for a whole trial range at once in wrapping uint64 numpy
arithmetic (`derive_seeds`), and `sample_batch` turns them into errors.

Each qubit, in qubit order, takes one uniform (two for iid_xz: the X draw,
then the Z draw).  `_windows` alone maps uniforms to X and Z components;
the scalar `sample`, which draws from any ``random.Random``, uses it too,
so the two samplers cannot disagree on the X/Y/Z split.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

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
        z = master + np.uint64(_GAMMA) * (index + np.uint64(1))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def uniforms(point_seed: int, start: int, stop: int, count: int) -> np.ndarray:
    """Draws 0..count-1 of trials start..stop-1, as a (stop - start, count)
    float64 array in [0, 1); see the draw contract above."""
    trial_seeds = derive_seeds(
        point_seed & _MASK64, np.arange(start, stop, dtype=np.uint64)
    )
    z = derive_seeds(trial_seeds[:, None], np.arange(count, dtype=np.uint64))
    return (z >> np.uint64(11)) * 2.0**-53


@dataclass(frozen=True)
class NoiseModel:
    """kind in {iid_x, iid_xz, depolarizing}; see the constructors below."""

    kind: str
    p_x: float = 0.0
    p_z: float = 0.0
    p: float = 0.0

    def __post_init__(self):
        for value in (self.p_x, self.p_z, self.p):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"probability {value} outside [0, 1]")
        if self.kind not in ("iid_x", "iid_xz", "depolarizing"):
            raise ValueError(f"unknown noise kind {self.kind!r}")

    @property
    def headline_rate(self) -> float:
        return self.p if self.kind == "depolarizing" else self.p_x

    @property
    def site_error_rate(self) -> float:
        """Probability that a given qubit carries any non-identity letter."""
        if self.kind == "iid_x":
            return self.p_x
        if self.kind == "iid_xz":
            return 1.0 - (1.0 - self.p_x) * (1.0 - self.p_z)
        return self.p


def iid_x(p_x: float) -> NoiseModel:
    return NoiseModel("iid_x", p_x=p_x)


def iid_xz(p_x: float, p_z: float) -> NoiseModel:
    """Independent X and Z flips per qubit; Y arises as the coincidence."""
    return NoiseModel("iid_xz", p_x=p_x, p_z=p_z)


def depolarizing(p: float) -> NoiseModel:
    """X, Y, Z each with probability p/3."""
    return NoiseModel("depolarizing", p=p)


def _windows(model: NoiseModel) -> tuple[float, float, float, bool]:
    """(x_hi, z_lo, z_hi, z_draw): a qubit's first uniform u gives an X
    component iff u < x_hi.  The Z component tests the qubit's second
    uniform when z_draw is set, else u again, against [z_lo, z_hi)."""
    if model.kind == "iid_x":
        return model.p_x, 0.0, 0.0, False
    if model.kind == "iid_xz":
        return model.p_x, 0.0, model.p_z, True
    # Depolarizing: u < p/3 is X, then Y up to 2p/3, then Z up to p.
    third = model.p / 3.0
    return 2.0 * third, third, model.p, False


def sample(model: NoiseModel, n: int, rng: random.Random) -> PauliOperator:
    """One error draw; per-qubit draws are made in qubit order."""
    x_hi, z_lo, z_hi, z_draw = _windows(model)
    x = z = 0
    for q in range(n):
        u = rng.random()
        if u < x_hi:
            x |= 1 << q
        if z_draw:
            u = rng.random()
        if z_lo <= u < z_hi:
            z |= 1 << q
    return PauliOperator(n, x, z, 0)


def sample_batch(
    model: NoiseModel, n: int, point_seed: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Errors of trials start..stop-1 as (trials, n) boolean X and Z arrays
    (column q-1 is qubit q), from the counter-based draws of `uniforms`."""
    x_hi, z_lo, z_hi, z_draw = _windows(model)
    draws = 1 + z_draw
    u = uniforms(point_seed, start, stop, n * draws).reshape(stop - start, n, draws)
    uz = u[:, :, draws - 1]
    return u[:, :, 0] < x_hi, (z_lo <= uz) & (uz < z_hi)


@dataclass(frozen=True)
class ErrorDistribution:
    mean_weight: float
    weight_probabilities: dict[int, float]  # P(weight = w) for w <= 3


def error_probabilities(model: NoiseModel, n: int) -> ErrorDistribution:
    """Exact binomial weight distribution (weight = qubits with any letter)."""
    if n > 30:
        raise ValueError("exact tail computation limited to n <= 30")
    q = model.site_error_rate
    probs = {
        w: math.comb(n, w) * q**w * (1.0 - q) ** (n - w) for w in range(min(3, n) + 1)
    }
    return ErrorDistribution(mean_weight=n * q, weight_probabilities=probs)
