"""Shared builders for the default parameter set used across test modules, and
closed forms that only the tests need."""
import math
from dataclasses import replace

import numpy as np
from scipy.special import expit

from mtgopt import mc_engine
from mtgopt.distfit import (
    LognormalParams,
    SampleMoments,
    ShiftedLognormalFit,
    _solve_excess,
    lognormal_mean,
)
from mtgopt.errors import ValidationError
from mtgopt.model import (
    DurationParams,
    MarketState,
    ModelSpec,
    OptionContract,
    RateDynamics,
    price,
    terminal_rate_law,
)
from mtgopt.pricer_closed import regime_warning

# default bundle: T=90/360, r_f=0.0209, K=100, P0=100, r0=0.01, mu=0,
# L=1, U=9, sigma=0.02, x0=0.055; curvature C is the sweep variable
DEFAULT_MARKET = MarketState(P0=100.0, r0=0.01)
DEFAULT_DYNAMICS = RateDynamics(mu=0.0, sigma=0.02)
DEFAULT_CONTRACT = OptionContract(K=100.0, T=90.0 / 360.0, r_f=0.0209)


def default_duration(C: float) -> DurationParams:
    return DurationParams(L=1.0, U=9.0, C=C, x0=0.055)


def default_spec(C: float) -> ModelSpec:
    return ModelSpec.calibrate(default_duration(C), DEFAULT_MARKET)


def unit_spot(spec: ModelSpec) -> ModelSpec:
    """spec at P0 = 1: its price map is P/P0, the sample an MC delta prices.
    replace keeps every calibrated field, none of which depends on P0."""
    return replace(spec, market=MarketState(1.0, spec.market.r0))


def cold_provider() -> None:
    """Drop the calling thread's sample provider: the next call that asks for it
    gets a new one and allocates its slots afresh, as a thread's first call does."""
    vars(mc_engine._thread).pop("draws", None)


def provider_slots(draws: mc_engine.Draws) -> int:
    """The n-float arrays a provider holds: its kept slots and its work slots."""
    return len(draws._slots) + len(draws._work)


def duration(p: DurationParams, r):
    """Duration D(r) = L + U/(1+e^{-C(r-x0)}); strictly increasing, range (L, L+U)."""
    return p.L + p.U * expit(p.C * (np.asarray(r, dtype=float) - p.x0))


def solve_eta(b: float) -> float:
    """Unique eta >= 1 with (eta+2) sqrt(eta-1) = b, for absolute skewness b >= 0."""
    if not b >= 0.0:
        raise ValidationError(f"absolute skewness must be >= 0, got {b}")
    return 1.0 + _solve_excess(b)


def lognormal_second_moment(p: LognormalParams) -> float:
    """M2 = E[Z^2] = e^{2 mu_X + 2 sigma_X^2}."""
    return math.exp(2.0 * p.mu_X + 2.0 * p.sigma_X**2)


def implied_moments(fit: ShiftedLognormalFit, n: int = 3) -> SampleMoments:
    """Analytic mean/m2/m3 of the fitted law (plug-back check)."""
    ez = lognormal_mean(fit.log_params)
    m2 = ez * ez * fit.eps
    m3 = fit.orientation * ez**3 * fit.eps**2 * (3.0 + fit.eps)
    return SampleMoments(fit.theta + fit.orientation * ez, m2, m3, n)


def numpy_regime_moments(spec: ModelSpec, dyn: RateDynamics, T: float) -> tuple[float, float, float]:
    """Mean, m2 and m3 of the terminal price on hermgauss(21), through the numpy
    price map: the reference for pricer_closed.regime_warning, which warns where
    m3 < -100 eps mean m2."""
    nodes, weights = np.polynomial.hermite.hermgauss(21)
    weights = weights / math.sqrt(math.pi)
    law = terminal_rate_law(dyn, T)
    p = price(spec, law.mean + math.sqrt(2.0) * law.std * nodes)
    mean = float(weights @ p)
    centered = p - mean
    weighted = weights * centered
    return mean, float(weighted @ centered), float(weighted @ centered**2)


def regime_verdicts(spec: ModelSpec, dyn: RateDynamics, T: float) -> tuple[bool, bool, bool]:
    """(regime_warning warns, the numpy reference warns, the reference's m3 lies
    within 10 eps mean m2 of its threshold), the last marking a set where the
    two may round to different sides."""
    eps = np.finfo(float).eps
    mean, m2, m3 = numpy_regime_moments(spec, dyn, T)
    threshold = -100.0 * eps * mean * m2
    in_band = abs(m3 - threshold) <= 10.0 * eps * mean * m2
    return regime_warning(spec, dyn, T) is not None, bool(m3 < threshold), bool(in_band)


def reference_central_moments(sample, out=None) -> SampleMoments:
    """The reduction distfit.central_moments must reproduce bit for bit: a full
    constancy pass, then np.mean of the sample, its deviations' squares and
    cubes."""
    a = np.asarray(sample, dtype=float)
    if a.ndim != 1:
        raise ValidationError(f"sample must be one-dimensional, got shape {a.shape}")
    n = a.size
    if n < 3:
        raise ValidationError(f"need n >= 3 for a third moment, got n={n}")
    d_out, p_out = (None, None) if out is None else out
    if np.all(a == a[0]):
        return SampleMoments(float(a[0]), 0.0, 0.0, n)
    mean = float(np.mean(a))
    d = np.subtract(a, mean, out=d_out)
    power = np.multiply(d, d, out=p_out)
    m2 = float(np.mean(power))
    m3 = float(np.mean(np.multiply(power, d, out=power)))
    return SampleMoments(mean, m2, m3, n)


def moment_bits(m: SampleMoments) -> tuple:
    """(mean, m2, m3) as hex strings, and n: equal only if every bit is."""
    return m.mean.hex(), m.m2.hex(), m.m3.hex(), m.n
