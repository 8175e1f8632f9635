"""Sample moments and the two moment-matching fitters.

Three-moment shifted lognormal: match mean, second and third central moments
of a sample with theta + Z or theta - Z, Z ~ LogN(mu_X, sigma_X^2). Writing
eta = e^{sigma_X^2}, the absolute skewness b satisfies b^2 = (eta-1)(eta+2)^2,
a cubic with a unique root eta >= 1. The solver works in eps = eta - 1: for
small b the root is eps ~ (b/3)^2, far below the resolution of a double near
1.0, and the downstream formulas only ever need eps (sigma_X^2 = log1p(eps),
E[Z] = sqrt(m2/eps)), so carrying eps preserves the moment plug-back precision
that eta itself cannot represent.

Two-lognormal-sum matching: a single lognormal with the same first two moments
as e^{X1} + e^{X2} for jointly normal (X1, X2), computed in log space so
exponents far outside double range still match to full precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, NonFiniteResultError, ValidationError

# below this |skewness| the three-moment system degenerates (theta -> +-inf);
# the fit falls back to a plain two-moment lognormal
NEAR_ZERO_SKEW_THRESHOLD = 1e-4


@dataclass(frozen=True)
class SampleMoments:
    """Mean and central moments with population-style 1/n divisors."""

    mean: float
    m2: float
    m3: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValidationError(f"need n >= 3 for a third moment, got n={self.n}")
        if not self.m2 >= 0.0:
            raise ValidationError(f"second central moment must be >= 0, got {self.m2}")


@dataclass(frozen=True)
class LognormalParams:
    """Parameters of LogN(mu_X, sigma_X^2)."""

    mu_X: float
    sigma_X: float

    def __post_init__(self) -> None:
        if not self.sigma_X >= 0.0:
            raise ValidationError(f"sigma_X must be >= 0, got {self.sigma_X}")


@dataclass(frozen=True)
class ShiftedLognormalFit:
    """Fitted law theta + Z (orientation +1) or theta - Z (orientation -1).

    tau is the signed single-number shift convention: tau = theta for
    orientation +1 and tau = -theta for -1 (i.e. orientation * theta).
    """

    theta: float
    orientation: int
    log_params: LognormalParams
    # eta - 1 carried at full precision for plug-back; eta itself quantizes
    # near 1 (see module docstring)
    eps: float

    @property
    def tau(self) -> float:
        return self.orientation * self.theta

    def implied_moments(self, n: int = 3) -> SampleMoments:
        """Analytic mean/m2/m3 of the fitted law (plug-back check)."""
        ez = lognormal_mean(self.log_params)
        m2 = ez * ez * self.eps
        m3 = self.orientation * ez**3 * self.eps**2 * (3.0 + self.eps)
        return SampleMoments(self.theta + self.orientation * ez, m2, m3, n)


@dataclass(frozen=True)
class TwoLognormalSpec:
    """Jointly normal exponents (X1, X2) of a correlated lognormal pair."""

    mu1: float
    sigma1_sq: float
    mu2: float
    sigma2_sq: float
    cov: float

    def __post_init__(self) -> None:
        if not self.sigma1_sq >= 0.0 or not self.sigma2_sq >= 0.0:
            raise ValidationError("sigma1_sq and sigma2_sq must be >= 0")
        # 1-ulp slack: perfectly correlated inputs hit equality in floats
        if self.cov * self.cov > self.sigma1_sq * self.sigma2_sq * (1.0 + 1e-12) + 1e-300:
            raise ValidationError("cov^2 must not exceed sigma1_sq * sigma2_sq")


def central_moments(sample) -> SampleMoments:
    """Mean and 1/n central moments m2, m3 of a sample (n >= 3)."""
    a = np.asarray(sample, dtype=float)
    if a.ndim != 1:
        raise ValidationError(f"sample must be one-dimensional, got shape {a.shape}")
    n = a.size
    if n < 3:
        raise ValidationError(f"need n >= 3 for a third moment, got n={n}")
    # constant samples short-circuit to exact zeros: mean roundoff would
    # otherwise manufacture m2 ~ (ulp*mean)^2 and a spurious |skew| of 1
    if np.all(a == a[0]):
        return SampleMoments(float(a[0]), 0.0, 0.0, n)
    mean = float(np.mean(a))
    d = a - mean
    m2 = float(np.mean(d * d))
    m3 = float(np.mean(d * d * d))
    return SampleMoments(mean, m2, m3, n)


def skewness(m: SampleMoments) -> float:
    """m3 / m2^(3/2)."""
    if m.m2 <= 0.0:
        raise DegenerateSampleError("skewness undefined: sample has zero variance")
    return m.m3 / m.m2**1.5


def _solve_excess(b: float) -> float:
    """Root eps >= 0 of (3+eps)^2 eps = b^2 (i.e. eta = 1+eps solves the skew cubic).

    g(eps) = eps^3 + 6 eps^2 + 9 eps - b^2 is strictly increasing and convex on
    eps >= 0, so Newton from the upper bracket converges monotonically; a
    bisection safeguard keeps every iterate inside the bracket regardless.
    """
    if b == 0.0:
        return 0.0
    bsq = b * b
    # eta <= cbrt(4+b^2) and eta >= 1 bracket the root in eps-space
    hi = (4.0 + bsq) ** (1.0 / 3.0) - 1.0
    lo = 0.0
    eps = hi
    for _ in range(100):
        g = ((eps + 6.0) * eps + 9.0) * eps - bsq
        if g > 0.0:
            hi = eps
        else:
            lo = eps
        dg = (3.0 * eps + 12.0) * eps + 9.0
        step = g / dg
        nxt = eps - step
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)  # bisection safeguard
        if nxt == eps or abs(nxt - eps) <= 1e-17 * eps:
            return nxt
        eps = nxt
    return eps


def solve_eta(b: float) -> float:
    """Unique eta >= 1 with (eta+2) sqrt(eta-1) = b, for absolute skewness b >= 0."""
    if not b >= 0.0:
        raise ValidationError(f"absolute skewness must be >= 0, got {b}")
    return 1.0 + _solve_excess(b)


def fit_shifted_lognormal(m: SampleMoments) -> ShiftedLognormalFit:
    """Three-moment fit of theta +- LogN(mu_X, sigma_X^2) to (mean, m2, m3).

    Orientation follows the sign of m3. Below |skewness| = NEAR_ZERO_SKEW_THRESHOLD the
    system degenerates (theta -> +-infinity with a canceling mean), so the fit
    falls back to a plain two-moment lognormal: theta = 0, orientation +1,
    sigma_X^2 = ln(1 + m2/mean^2), mu_X = ln(mean) - sigma_X^2/2.
    """
    if m.m2 <= 0.0:
        raise DegenerateSampleError("cannot fit a constant sample (m2 = 0)")
    skew = skewness(m)
    if abs(skew) < NEAR_ZERO_SKEW_THRESHOLD:
        if m.mean <= 0.0:
            raise DegenerateSampleError(
                "two-moment lognormal fallback needs a positive mean"
            )
        orientation, ez = 1, m.mean
        s2 = math.log1p(m.m2 / (m.mean * m.mean))
        eps = math.expm1(s2)
    else:
        orientation = 1 if skew > 0.0 else -1
        eps = _solve_excess(abs(skew))
        s2 = math.log1p(eps)
        ez = math.sqrt(m.m2 / eps)
    return ShiftedLognormalFit(
        theta=m.mean - orientation * ez,
        orientation=orientation,
        log_params=LognormalParams(math.log(ez) - 0.5 * s2, math.sqrt(s2)),
        eps=eps,
    )


def lognormal_mean(p: LognormalParams) -> float:
    """M1 = E[Z] = e^{mu_X + sigma_X^2/2}."""
    return math.exp(p.mu_X + 0.5 * p.sigma_X**2)


def lognormal_second_moment(p: LognormalParams) -> float:
    """M2 = E[Z^2] = e^{2 mu_X + 2 sigma_X^2}."""
    return math.exp(2.0 * p.mu_X + 2.0 * p.sigma_X**2)


def match_two_lognormal_sum(s: TwoLognormalSpec) -> LognormalParams:
    """Lognormal with the first two moments of e^{X1} + e^{X2}.

    log E = lse(mu1 + s1/2, mu2 + s2/2)
    log E^2-moment = lse(2mu1 + 2s1, ln2 + mu1 + mu2 + (s1+s2+2cov)/2, 2mu2 + 2s2)
    then sigma_X^2 = log M2 - 2 log M1 and mu_X = log M1 - sigma_X^2/2. Exponents
    whose variances overflow leave log M1 or sigma_X^2 non-finite, which raises
    NonFiniteResultError.
    """
    a = np.logaddexp(s.mu1 + 0.5 * s.sigma1_sq, s.mu2 + 0.5 * s.sigma2_sq)
    b = np.logaddexp(
        np.logaddexp(
            2.0 * s.mu1 + 2.0 * s.sigma1_sq,
            math.log(2.0)
            + s.mu1
            + s.mu2
            + 0.5 * (s.sigma1_sq + s.sigma2_sq + 2.0 * s.cov),
        ),
        2.0 * s.mu2 + 2.0 * s.sigma2_sq,
    )
    s2 = max(float(b) - 2.0 * float(a), 0.0)  # clamp roundoff at sigma -> 0
    if not (math.isfinite(a) and math.isfinite(s2)):
        raise NonFiniteResultError(f"matched lognormal has log M1 = {float(a)}, sigma_X^2 = {s2}")
    return LognormalParams(float(a) - 0.5 * s2, math.sqrt(s2))
