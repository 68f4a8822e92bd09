"""Tests for the Laplace machinery."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.core.laplace import (
    LaplaceMechanism,
    clamp,
    laplace_noise,
    round_to_int,
)


class TestLaplaceNoise:
    def test_rejects_non_positive_scale(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            laplace_noise(rng, scale=0.0)
        with pytest.raises(ValueError):
            laplace_noise(rng, scale=-1.0)

    def test_deterministic_for_seed(self):
        a = laplace_noise(random.Random(1), mu=0.0, scale=1.0)
        b = laplace_noise(random.Random(1), mu=0.0, scale=1.0)
        assert a == b

    def test_empirical_mean_matches_mu(self):
        rng = random.Random(42)
        samples = [laplace_noise(rng, mu=5.0, scale=1.0) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(5.0, abs=0.1)

    def test_empirical_scale(self):
        """Mean absolute deviation of Lap(0, λ) equals λ."""
        rng = random.Random(42)
        scale = 2.5
        samples = [laplace_noise(rng, mu=0.0, scale=scale) for _ in range(20_000)]
        mad = sum(abs(s) for s in samples) / len(samples)
        assert mad == pytest.approx(scale, rel=0.05)

    def test_negative_mean_biases_down(self):
        rng = random.Random(7)
        samples = [laplace_noise(rng, mu=-3.0, scale=1.0) for _ in range(5_000)]
        negative = sum(1 for s in samples if s < 0)
        assert negative / len(samples) > 0.9

    @given(st.floats(-100, 100), st.floats(0.01, 50), st.integers(0, 1000))
    def test_always_finite(self, mu, scale, seed):
        value = laplace_noise(random.Random(seed), mu=mu, scale=scale)
        assert math.isfinite(value)


class TestRounding:
    def test_round_half_away_from_zero(self):
        assert round_to_int(0.5) == 1
        assert round_to_int(-0.5) == -1
        assert round_to_int(2.4) == 2
        assert round_to_int(-2.6) == -3

    def test_clamp(self):
        assert clamp(5, 0, 10) == 5
        assert clamp(-3, 0, 10) == 0
        assert clamp(42, 0, 10) == 10

    def test_clamp_invalid_range(self):
        with pytest.raises(ValueError):
            clamp(1, 5, 2)


class TestLaplaceMechanism:
    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            LaplaceMechanism(0.0)
        with pytest.raises(ValueError):
            LaplaceMechanism(-1.0)

    def test_invalid_sensitivity(self):
        with pytest.raises(ValueError):
            LaplaceMechanism(1.0, sensitivity=0.0)

    def test_scale(self):
        assert LaplaceMechanism(0.5, sensitivity=1.0).scale == 2.0
        assert LaplaceMechanism(2.0, sensitivity=4.0).scale == 2.0

    def test_perturb_count_bounds(self):
        mech = LaplaceMechanism(0.1)  # large noise
        rng = random.Random(3)
        for _ in range(500):
            noisy = mech.perturb_count(5, rng, lower=0, upper=10)
            assert 0 <= noisy <= 10
            assert isinstance(noisy, int)

    def test_perturb_count_unbounded_above(self):
        mech = LaplaceMechanism(0.05)
        rng = random.Random(3)
        values = [mech.perturb_count(5, rng, lower=0, upper=None) for _ in range(500)]
        assert all(v >= 0 for v in values)
        assert max(values) > 10  # some large positive noise survives

    def test_negative_mu_reduces_counts(self):
        mech = LaplaceMechanism(1.0)
        rng = random.Random(5)
        reduced = [
            mech.perturb_count(10, rng, mu=-10.0, lower=0) for _ in range(1000)
        ]
        assert sum(reduced) / len(reduced) < 3.0

    def test_epsilon_ratio_empirical(self):
        """Empirical DP check: P[M(x)=z] <= e^eps * P[M(x')=z].

        Uses two adjacent counts (5 and 6) and compares output
        histograms over many samples; every bucket with enough mass
        must respect the e^eps bound within sampling error.
        """
        epsilon = 1.0
        mech = LaplaceMechanism(epsilon)
        rng = random.Random(11)
        n = 60_000
        hist_x: dict[int, int] = {}
        hist_y: dict[int, int] = {}
        for _ in range(n):
            zx = mech.perturb_count(5, rng, lower=0, upper=20)
            zy = mech.perturb_count(6, rng, lower=0, upper=20)
            hist_x[zx] = hist_x.get(zx, 0) + 1
            hist_y[zy] = hist_y.get(zy, 0) + 1
        bound = math.exp(epsilon)
        for z in set(hist_x) | set(hist_y):
            px = hist_x.get(z, 0) / n
            py = hist_y.get(z, 0) / n
            if min(px, py) < 0.01:  # skip low-mass buckets (sampling noise)
                continue
            assert px <= bound * py * 1.15
            assert py <= bound * px * 1.15
