import math
import random

import numpy as np
import pytest

from stabkit import noise
from stabkit.noise import (
    CHANNELS,
    NoiseModel,
    depolarizing,
    derive_seed,
    derive_seeds,
    iid_x,
    iid_xz,
    sample,
    sample_batch,
)
from stabkit.pauli import identity, weight


class TestModels:
    def test_probability_range_checked(self):
        with pytest.raises(ValueError):
            iid_x(1.2)
        with pytest.raises(ValueError):
            iid_xz(0.1, -0.5)
        with pytest.raises(ValueError):
            NoiseModel(0.5, 0.3, 0.3, 0.5)
        with pytest.raises(ValueError):
            depolarizing(1.2)

    def test_headline_rates(self):
        assert iid_x(0.03).headline_rate == 0.03
        assert depolarizing(0.2).headline_rate == 0.2

    def test_constructors_are_pauli_channels(self):
        assert iid_x(0.3) == NoiseModel(0.3, 0.0, 0.0, 0.3)
        model = iid_xz(0.2, 0.3)
        assert (model.p_x, model.p_y, model.p_z) == pytest.approx((0.14, 0.06, 0.24))
        assert model.headline_rate == 0.2
        assert iid_xz(1.0, 1.0) == NoiseModel(0.0, 1.0, 0.0, 1.0)
        for p in (0.007, 0.1, 0.3, 0.75, 1.0):
            model = depolarizing(p)
            assert (model.p_x, model.p_y, model.p_z) == pytest.approx((p / 3,) * 3)
            # The X and Z windows of a qubit's uniform end at exactly p.
            assert model.p_x + model.p_y + model.p_z == p
        assert CHANNELS["iid_xz"](0.1) == iid_xz(0.1, 0.1)
        assert CHANNELS["iid_x"](0.1) == iid_x(0.1)
        assert CHANNELS["depolarizing"](0.1) == depolarizing(0.1)


class TestSample:
    def test_zero_rate_identity(self):
        rng = random.Random(0)
        for _ in range(50):
            assert sample(iid_x(0.0), 4, rng) == identity(4)

    def test_unit_rate_all_x(self):
        rng = random.Random(0)
        for _ in range(20):
            draw = sample(iid_x(1.0), 3, rng)
            assert draw.x_bits == 0b111 and draw.z_bits == 0

    def test_reproducible_streams(self):
        model = iid_xz(0.3, 0.2)
        a = [sample(model, 5, random.Random(derive_seed(42, i))) for i in range(100)]
        b = [sample(model, 5, random.Random(derive_seed(42, i))) for i in range(100)]
        assert a == b
        c = [sample(model, 5, random.Random(derive_seed(43, i))) for i in range(100)]
        assert a != c

    def test_iid_x_weight_distribution(self):
        # (0.9 + 0.1)^2 expansion: P(w=0)=0.81, P(w=1)=0.18, P(w=2)=0.01
        rng = random.Random(123)
        counts = [0, 0, 0]
        trials = 200_000
        for _ in range(trials):
            counts[weight(sample(iid_x(0.1), 2, rng))] += 1
        for count, expect in zip(counts, (0.81, 0.18, 0.01)):
            sigma = math.sqrt(expect * (1 - expect) / trials)
            assert abs(count / trials - expect) < 5 * sigma

    def test_per_qubit_flip_frequency(self):
        rng = random.Random(7)
        p = 0.05
        trials = 1_000_000
        flips = 0
        for _ in range(trials):
            flips += sample(iid_x(p), 1, rng).x_bits
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(flips / trials - p) < 5 * sigma

    def test_depolarizing_letter_balance(self):
        rng = random.Random(11)
        p = 0.3
        trials = 100_000
        counts = {"X": 0, "Y": 0, "Z": 0, "I": 0}
        for _ in range(trials):
            draw = sample(depolarizing(p), 1, rng)
            counts[draw.letter(1)] += 1
        sigma = math.sqrt((p / 3) * (1 - p / 3) / trials)
        for letter in "XYZ":
            assert abs(counts[letter] / trials - p / 3) < 5 * sigma
        assert abs(counts["I"] / trials - (1 - p)) < 5 * math.sqrt(p * (1 - p) / trials)

    def test_iid_xz_y_coincidence(self):
        rng = random.Random(19)
        trials = 100_000
        y_count = 0
        model = iid_xz(0.2, 0.3)
        for _ in range(trials):
            if sample(model, 1, rng).letter(1) == "Y":
                y_count += 1
        expect = 0.2 * 0.3
        sigma = math.sqrt(expect * (1 - expect) / trials)
        assert abs(y_count / trials - expect) < 5 * sigma


def uniforms(point_seed, start, stop, count):
    """Draws 0..count-1 of trials start..stop-1, as a (stop - start, count)
    float64 array in [0, 1): the batch's words read as the draw contract's
    uniforms."""
    return (noise._words([(point_seed, start, stop)], count) >> np.uint64(11)) * 2.0**-53


class _Replay:
    """Stands in for random.Random, returning given uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


class TestDraws:
    def test_vectorised_derive_seed_matches_scalar(self):
        masters = [0, 1, 12345, 2**63, 2**64 - 2, 2**64 - 1]
        indices = [0, 1, 7, 2**32 + 5, 2**63, 2**64 - 1]
        got = derive_seeds(
            np.array(masters, dtype=np.uint64)[:, None], np.array(indices, dtype=np.uint64)
        )
        for i, master in enumerate(masters):
            for j, index in enumerate(indices):
                assert int(got[i, j]) == derive_seed(master, index)
        assert int(derive_seeds(2**64 - 1, 0)) == derive_seed(2**64 - 1, 0)

    def test_uniforms_follow_the_stream_of_each_trial(self):
        seed = 2**64 - 3
        u = uniforms(seed, 5, 9, 3)
        assert u.shape == (4, 3)
        for row, trial in enumerate(range(5, 9)):
            for j in range(3):
                expect = (derive_seed(derive_seed(seed, trial), j) >> 11) * 2.0**-53
                assert u[row, j] == expect

    def test_uniforms_of_a_range_are_rows_of_the_prefix(self):
        full = uniforms(99, 0, 300, 18)
        assert full.min() >= 0.0 and full.max() < 1.0
        for a, b in ((0, 300), (1, 2), (17, 255), (299, 300)):
            assert np.array_equal(uniforms(99, a, b, 18), full[a:b])

    # Edge models: no window, windows of [0, 1) (x_hi = 1.0 compares with
    # the Python int 2^64), limits at exact multiples of 2^-53, and a Z
    # window closing at exactly 1.0.
    EDGE_MODELS = (iid_x(0.0), iid_x(1.0), iid_xz(0.5, 0.5), depolarizing(1.0))

    def test_batch_equals_scalar_sample_on_the_same_draws(self):
        n = 7
        for model in (iid_x(0.3), iid_xz(0.2, 0.4), depolarizing(0.6)) + self.EDGE_MODELS:
            x, z = sample_batch(n, [(model, 4, 10, 60)])
            u = uniforms(4, 10, 60, n)
            for row in range(50):
                op = sample(model, n, _Replay(u[row]))
                assert op.x_bits == sum(int(b) << q for q, b in enumerate(x[row]))
                assert op.z_bits == sum(int(b) << q for q, b in enumerate(z[row]))

    @pytest.mark.parametrize("model", EDGE_MODELS + (depolarizing(0.6), iid_xz(0.1, 0.3)))
    def test_batch_limits_match_the_float_test_at_their_words(self, model, monkeypatch):
        # The words next to each integer limit ceil(t 2^53) 2^11, fed to
        # sample_batch in place of the hash, are classed as the float draws
        # ((w >> 11) 2^-53) < t of the scalar sample.
        words = {0, 2**64 - 1}
        for t in noise._bounds(model):
            limit = math.ceil(t * 2.0**53) << 11
            words |= {w for w in (limit - 1, limit, limit + 1) if 0 <= w < 2**64}
        words = np.array(sorted(words), dtype=np.uint64)[:, None]
        monkeypatch.setattr(noise, "_words", lambda pieces, count: words)
        x, z = sample_batch(1, [(model, 0, 0, len(words))])
        for w, x_bit, z_bit in zip(words[:, 0], x[:, 0], z[:, 0]):
            op = sample(model, 1, _Replay([(int(w) >> 11) * 2.0**-53]))
            assert (op.x_bits, op.z_bits) == (int(x_bit), int(z_bit))

    def test_batch_depolarizing_letter_balance(self):
        p = 0.3
        x, z = sample_batch(4, [(depolarizing(p), 11, 0, 50_000)])
        draws = x.size
        sigma = math.sqrt((p / 3) * (1 - p / 3) / draws)
        for count in ((x & ~z).sum(), (x & z).sum(), (~x & z).sum()):
            assert abs(count / draws - p / 3) < 5 * sigma
        identity_share = (~x & ~z).sum() / draws
        assert abs(identity_share - (1 - p)) < 5 * math.sqrt(p * (1 - p) / draws)

    def test_batch_iid_xz_letter_frequencies(self):
        px, pz = 0.2, 0.3
        x, z = sample_batch(4, [(iid_xz(px, pz), 13, 0, 50_000)])
        draws = x.size
        observed = ((x & ~z).sum(), (x & z).sum(), (~x & z).sum())
        for count, expect in zip(observed, (px * (1 - pz), px * pz, pz * (1 - px))):
            sigma = math.sqrt(expect * (1 - expect) / draws)
            assert abs(count / draws - expect) < 5 * sigma

