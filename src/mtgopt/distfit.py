"""Sample moments and the three-moment shifted-lognormal fit.

Three-moment shifted lognormal: match mean, second and third central moments
of a sample with theta + Z or theta - Z, Z ~ LogN(mu_X, sigma_X^2). Writing
eta = e^{sigma_X^2}, the absolute skewness b satisfies b^2 = (eta-1)(eta+2)^2,
a cubic with a unique root eta >= 1. In eps = eta - 1 it is (3 + eps)^2 eps =
b^2, whose root is eps = 4 sinh^2(asinh(b/2)/3): with y = asinh(b/2)/3 and
s = sinh y, (3 + 4 s^2)^2 4 s^2 = (2 sinh 3y)^2 = b^2. The fit carries eps,
not eta: for small b the root is eps ~ (b/3)^2, far below the resolution of a
double near 1.0, and the downstream formulas only ever need eps (sigma_X^2 =
log1p(eps), E[Z] = sqrt(m2/eps)), so carrying eps preserves the moment
plug-back precision that eta itself cannot represent.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, ValidationError

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
        check_moment_count(self.n)
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


def check_moment_count(n: int) -> None:
    """A third moment needs n >= 3."""
    if n < 3:
        raise ValidationError(f"need n >= 3 for a third moment, got n={n}")


def central_moments(sample, out=None) -> SampleMoments:
    """Mean and 1/n central moments m2, m3 of a sample (n >= 3).

    out, a pair of float arrays shaped like the sample, holds the deviations
    and their powers; without it they are new arrays. The sample may be one of
    them, the powers' array included: it is written only after its mean is taken.
    """
    a = np.asarray(sample, dtype=float)
    if a.ndim != 1:
        raise ValidationError(f"sample must be one-dimensional, got shape {a.shape}")
    n = a.size
    check_moment_count(n)
    d_out, p_out = (None, None) if out is None else out
    # constant samples short-circuit to exact zeros: mean roundoff would
    # otherwise manufacture m2 ~ (ulp*mean)^2 and a spurious |skew| of 1; the
    # full pass runs only where its answer can be yes
    if a[0] == a[-1] and np.all(a == a[0]):
        return SampleMoments(float(a[0]), 0.0, 0.0, n)
    # np.add.reduce(a) / n is np.mean's own sum and division, bit for bit
    mean = float(np.add.reduce(a) / n)
    d = np.subtract(a, mean, out=d_out)
    power = np.multiply(d, d, out=p_out)
    m2 = float(np.add.reduce(power) / n)
    m3 = float(np.add.reduce(np.multiply(power, d, out=power)) / n)
    return SampleMoments(mean, m2, m3, n)


def skewness(m: SampleMoments) -> float:
    """m3 / m2^(3/2); unresolved once m2^(3/2) leaves the normal floats."""
    if m.m2 <= 0.0:
        raise DegenerateSampleError("skewness undefined: sample has zero variance")
    scale = m.m2**1.5
    if scale < sys.float_info.min:
        raise DegenerateSampleError(f"skewness unresolved: m2^(3/2) underflows at m2={m.m2:.6g}")
    return m.m3 / scale


def _solve_excess(b: float) -> float:
    """The root eps >= 0 of (3 + eps)^2 eps = b^2, 4 sinh^2(asinh(b/2)/3)."""
    s = math.sinh(math.asinh(0.5 * b) / 3.0)
    return 4.0 * s * s


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

