"""Logistic-duration mortgage price model.

Duration rises along a logistic curve in the mortgage rate r:

    D(r) = L + U / (1 + exp(-C (r - x0)))

Integrating the defining ODE dP/dr = -D(r) P(r) gives the closed-form price

    P(r) = k exp(-L r) (1 + exp(C (r - x0)))^(-U/C)

with the level k calibrated so that P(r0) equals the observed spot price P0.
The terminal mortgage rate is normal: r_T ~ N(r0 + mu T, sigma^2 T).

All price evaluations run in log space with a logaddexp kernel: curvatures up
to C ~ 40-50 combined with rates several sigma from x0 push exp(C (r - x0))
past double range, and k itself grows without bound as C -> 0 through the
2^(U/C) factor, so k is carried as log k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import expit

from .errors import ValidationError


def _require_finite(params) -> None:
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise ValidationError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class DurationParams:
    """Parameters of the logistic duration curve D(r) = L + U/(1+e^{-C(r-x0)}).

    L is the lower bound, U the upper range (so L+U is the cap), C the
    curvature of the transition, and x0 the coupon rate where D = L + U/2.
    """

    L: float
    U: float
    C: float
    x0: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.L >= 0.0:
            raise ValidationError(f"duration lower bound L must be >= 0, got {self.L}")
        if not self.U > 0.0:
            raise ValidationError(f"duration range U must be > 0, got {self.U}")
        # C = 0 is rejected rather than treated as the constant-duration
        # limit: C divides U in the price formula. Pass a small C instead.
        if not self.C > 0.0:
            raise ValidationError(f"curvature C must be > 0, got {self.C}")


@dataclass(frozen=True)
class MarketState:
    """Current spot market price P0 and current mortgage rate r0."""

    P0: float
    r0: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.P0 > 0.0:
            raise ValidationError(f"spot price P0 must be > 0, got {self.P0}")


@dataclass(frozen=True)
class RateDynamics:
    """Normal mortgage-rate process: drift mu per year, volatility sigma per sqrt(year)."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.sigma > 0.0:
            raise ValidationError(f"rate volatility sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class OptionContract:
    """European call contract: strike K, expiry T (year fraction), risk-free rate r_f."""

    K: float
    T: float
    r_f: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.K > 0.0:
            raise ValidationError(f"strike K must be > 0, got {self.K}")
        if not self.T > 0.0:
            raise ValidationError(f"expiry T must be > 0, got {self.T}")

    @property
    def df(self) -> float:
        """Discount factor e^{-r_f T}."""
        return math.exp(-self.r_f * self.T)


@dataclass(frozen=True)
class NormalLaw:
    """A normal law by mean and standard deviation."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not self.std >= 0.0:
            raise ValidationError(f"std must be >= 0, got {self.std}")


@dataclass(frozen=True)
class ModelSpec:
    """A calibrated model: duration curve, market state, and level k as log k."""

    duration: DurationParams
    market: MarketState
    log_k: float

    @classmethod
    def calibrate(cls, duration: DurationParams, market: MarketState) -> "ModelSpec":
        return cls(duration, market, _log_level(duration, market))

    @property
    def k(self) -> float:
        """Level k = P0 e^{L r0} (1 + e^{C(r0-x0)})^{U/C}."""
        # may overflow to +inf for tiny C; log_k is the authoritative value
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_k))


def duration(p: DurationParams, r):
    """Duration D(r) = L + U/(1+e^{-C(r-x0)}); strictly increasing, range (L, L+U)."""
    return p.L + p.U * expit(p.C * (np.asarray(r, dtype=float) - p.x0))


def _log_level(p: DurationParams, m: MarketState) -> float:
    # log k = log P0 + L r0 + (U/C) log(1 + e^{C (r0 - x0)})
    return (
        math.log(m.P0)
        + p.L * m.r0
        + (p.U / p.C) * float(np.logaddexp(0.0, p.C * (m.r0 - p.x0)))
    )


def log_price(spec: ModelSpec, r):
    """log P(r) = log k - L r - (U/C) log(1 + e^{C (r - x0)})."""
    p = spec.duration
    r = np.asarray(r, dtype=float)
    return spec.log_k - p.L * r - (p.U / p.C) * np.logaddexp(0.0, p.C * (r - p.x0))


def price(spec: ModelSpec, r):
    """Model price P(r); strictly decreasing in r, P(r0) = P0 by calibration."""
    return np.exp(log_price(spec, r))


def terminal_rate_law(m: MarketState, dyn: RateDynamics, T: float) -> NormalLaw:
    """Law of the terminal rate: N(r0 + mu T, sigma^2 T)."""
    if not T > 0.0:
        raise ValidationError(f"expiry T must be > 0, got {T}")
    return NormalLaw(mean=m.r0 + dyn.mu * T, std=dyn.sigma * math.sqrt(T))
