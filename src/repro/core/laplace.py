"""Laplace machinery: noise sampling and the mechanism wrapper.

The paper's local mechanism relies on a *non-trivial* Laplace mechanism
whose distribution mean is non-zero (Theorem 2 proves this preserves
ε-DP as long as the scale stays ``∆φ/ε``). This module provides

* :func:`laplace_noise` — a seeded ``Lap(μ, λ)`` sampler;
* :class:`LaplaceMechanism` — query perturbation with explicit
  sensitivity and post-processing (integer rounding / range clamping,
  which never weakens the guarantee — Dwork & Roth §2.1).

What each draw spends is recorded by its caller in a
:class:`~repro.core.accounting.CompositionLedger`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


def laplace_noise(rng: random.Random, mu: float = 0.0, scale: float = 1.0) -> float:
    """One sample from ``Lap(μ, λ)`` via inverse-CDF sampling.

    ``scale`` must be positive; ``μ`` may be any real (the non-trivial
    mechanism uses ``μ = -f_k`` and ``μ = -μ̄``).
    """
    if scale <= 0.0:
        raise ValueError(f"Laplace scale must be positive, got {scale}")
    # Uniform in (-0.5, 0.5]; guard the u == -0.5 endpoint where the
    # inverse CDF diverges.
    u = rng.random() - 0.5
    while u == -0.5:
        u = rng.random() - 0.5
    return mu - scale * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))


def round_to_int(value: float) -> int:
    """Round-half-away-from-zero to the nearest integer.

    The paper's post-processing rounds noisy frequencies to "a proper
    integer"; banker's rounding would bias counts at .5 boundaries, so
    we round half away from zero.
    """
    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


def clamp(value: int, lower: int, upper: int) -> int:
    """Clamp ``value`` into ``[lower, upper]`` (Algorithm 1, line 5)."""
    if lower > upper:
        raise ValueError(f"invalid clamp range [{lower}, {upper}]")
    return max(lower, min(upper, value))


@dataclass(slots=True)
class LaplaceMechanism:
    """An ε-DP Laplace mechanism for counting queries.

    ``sensitivity`` is ∆φ (1 for both of the paper's point-counting
    queries), so the noise scale is ``sensitivity / epsilon``.
    """

    epsilon: float
    sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.sensitivity <= 0.0:
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity}")

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon

    def perturb(self, value: float, rng: random.Random, mu: float = 0.0) -> float:
        """``value + Lap(μ, ∆φ/ε)`` — the raw noisy answer."""
        return value + laplace_noise(rng, mu=mu, scale=self.scale)

    def perturb_count(
        self,
        value: int,
        rng: random.Random,
        mu: float = 0.0,
        lower: int = 0,
        upper: int | None = None,
    ) -> int:
        """Noisy count with the paper's post-processing applied.

        Rounds to the nearest integer and clamps into ``[lower, upper]``
        (``upper=None`` leaves the top unbounded). Pure post-processing,
        so the ε-DP guarantee of the raw answer carries over.
        """
        noisy = round_to_int(self.perturb(float(value), rng, mu=mu))
        if upper is None:
            return max(lower, noisy)
        return clamp(noisy, lower, upper)
