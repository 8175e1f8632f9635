"""Logistic-duration mortgage price model.

Duration rises along a logistic curve in the mortgage rate r:

    D(r) = L + U / (1 + exp(-C (r - x0)))

Integrating the defining ODE dP/dr = -D(r) P(r) from the observed spot
P(r0) = P0 gives the closed-form price

    P(r) = P0 exp(-L (r - r0)) (1 - q + q exp(C (r - r0)))^(-U/C)

with q = expit(C (r0 - x0)) = (D(r0) - L) / U. The terminal rate move is
normal: r_T - r0 ~ N(mu T, sigma^2 T).

Prices are evaluated in log space on the rate move r - r0, so neither a large
r0, a small curvature nor a coupon rate far from r0 cancels digits, and
curvatures up to C ~ 40-50 stay inside double range.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteResultError, ValidationError

MIN_CURVATURE = 1e-100

# the largest x whose e^x is a finite double
MAX_EXP_ARG = math.log(sys.float_info.max)


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
        # below MIN_CURVATURE, (C sigma)^2 in the LN law underflows at the defaults
        if not self.C >= MIN_CURVATURE:
            raise ValidationError(f"curvature C must be >= {MIN_CURVATURE:g}, got {self.C}")
        # the price map scales its two terms by L/C and U/C
        for name, value in (("L", self.L), ("U", self.U)):
            if not math.isfinite(value / self.C):
                raise ValidationError(f"{name}/C must be finite, got {name}={value}, C={self.C}")


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
        if not -self.r_f * self.T <= MAX_EXP_ARG:
            raise ValidationError(f"discount e^(-r_f T) must be finite, got r_f={self.r_f}, T={self.T}")

    @property
    def df(self) -> float:
        """Discount factor e^{-r_f T}."""
        return math.exp(-self.r_f * self.T)


class NormalLaw(NamedTuple):
    """A normal law by mean and standard deviation."""

    mean: float
    std: float


@dataclass(frozen=True)
class ModelSpec:
    """A calibrated model: duration curve, market state, q = expit(b) and the
    bracket's logs log q = -sp(-b), log(1 - q) = -sp(b), b = C (r0 - x0), sp = softplus."""

    duration: DurationParams
    market: MarketState
    q: float
    log_q: float
    log_1mq: float

    @classmethod
    def calibrate(cls, duration: DurationParams, market: MarketState) -> "ModelSpec":
        b = duration.C * (market.r0 - duration.x0)
        if not math.isfinite(b):
            raise NonFiniteResultError(
                f"C (r0 - x0) overflows at C={duration.C}, r0={market.r0}, x0={duration.x0}"
            )
        return cls(duration, market, _expit(b), -_softplus(-b), -_softplus(b))


def _expit(b: float) -> float:
    """1 / (1 + e^{-b}), bit for bit scipy.special.expit; 0.0 where e^{-b} overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-b))
    except OverflowError:
        return 0.0


def _softplus(y: float) -> float:
    return max(y, 0.0) + math.log1p(math.exp(-abs(y)))


def log_shape(spec: ModelSpec, d, out=None):
    """The P0-free terms (A, B) of log P = log P0 - A - B at the rate moves
    d = r - r0: A = (L/C) x and B = (U/C) log(1 - q + q e^x), with x = C d.

    The bracket is log1p(q expm1(x)) for |x| <= 1, where its argument stays in
    [1/e, e], and beyond that logaddexp(log(1 - q), log q + x) on the spec's logs.

    out, a pair of float arrays shaped like d, receives A and B; without it
    both are new arrays. d is written only if it is out[0].
    """
    p = spec.duration
    A, B = (None, None) if out is None else out
    x = np.multiply(d, p.C, out=A, dtype=float)
    # the array the bracket is worked in; asarray turns the scalar that a
    # ufunc returns for a 0-d d into an array that out= can write. Where no
    # |x| > 1 (the min and max fail this on a NaN), the clip to [-1, 1] and
    # the far pass would change nothing
    far = None
    if x.size and -1.0 <= x.min() and x.max() <= 1.0:
        step = np.asarray(np.expm1(x, out=B))
    else:
        step = np.asarray(np.abs(x, out=B))
        far = step > 1.0
        np.maximum(x, -1.0, out=step)
        np.minimum(step, 1.0, out=step)
        np.expm1(step, out=step)
    np.multiply(step, spec.q, out=step)
    np.log1p(step, out=step)
    if far is not None and np.count_nonzero(far):
        np.add(x, spec.log_q, out=step, where=far)
        np.logaddexp(spec.log_1mq, step, out=step, where=far)
    return np.multiply(x, p.L / p.C, out=A), np.multiply(step, p.U / p.C, out=step)


def log_price(spec: ModelSpec, d, out=None):
    """log P = log P0 - A - B at the rate moves d = r - r0, anchored at log P0
    at d = 0; out as for log_shape, and the log price is written over out[0]."""
    A, B = log_shape(spec, d, out)
    target = None if out is None else out[0]
    return np.subtract(np.subtract(math.log(spec.market.P0), A, out=target), B, out=target)


def price(spec: ModelSpec, r, out=None):
    """Model price at the rate moves r - r0 held in r; strictly decreasing in
    the move and anchored at P0 at a zero move.

    out as for log_shape; the price is written over out[0].
    """
    return np.exp(log_price(spec, r, out), out=None if out is None else out[0])


def terminal_rate_law(dyn: RateDynamics, T: float) -> NormalLaw:
    """Law of the terminal rate move r_T - r0: N(mu T, sigma^2 T), whose overflow names mu, sigma, T."""
    if not T > 0.0:
        raise ValidationError(f"expiry T must be > 0, got {T}")
    mean, std = dyn.mu * T, dyn.sigma * math.sqrt(T)
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise NonFiniteResultError(f"terminal rate law overflows at mu={dyn.mu}, sigma={dyn.sigma}, T={T}")
    return NormalLaw(mean=mean, std=std)
