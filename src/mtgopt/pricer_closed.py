"""Closed-form pricing engines.

Three pieces: a shifted Black-Scholes kernel over a lognormal underlier with
an effective strike, in orientation o = +-1 (a call on Z or a put on Z);
shifted-lognormal pricing, which fits theta + o Z to terminal-price moments and
prices through the kernel with K_eff = o (K - theta); and the
parametric lognormal, which matches the terminal price in closed form by
writing e^{-log P / scale} as a sum of two perfectly correlated lognormals, so
price and Greeks need no sample at all.

The parametric route assumes positively skewed terminal prices (low
curvature); results outside that regime carry a warning rather than an error.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distfit import SampleMoments, ShiftedLognormalFit, fit_shifted_lognormal, lognormal_mean
from .errors import NonFiniteResultError
from .model import (
    ModelSpec,
    OptionContract,
    RateDynamics,
    _softplus,
    price as model_price,
    terminal_rate_law,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

# fixed quadrature for the regime proxy: enough nodes to sign the third
# central moment of the smooth terminal-price curve
_PROXY_NODES, _HERMITE_WEIGHTS = np.polynomial.hermite.hermgauss(21)
_PROXY_WEIGHTS = _HERMITE_WEIGHTS / math.sqrt(math.pi)
# roundoff of a few ulps in each quadrature price moves the third moment by
# about 3 m2 times that, so a third moment smaller than 100 eps * mean * m2 is
# not resolved
_UNRESOLVED_M3 = 100.0 * np.finfo(float).eps


@dataclass(frozen=True)
class BsKernelInputs:
    """Lognormal forward mean M1, log-std W, effective strike, discount factor."""

    M1: float
    W: float
    K_eff: float
    df: float


@dataclass(frozen=True)
class PriceResult:
    """Price with its method tag, MC standard error, fit or law diagnostics,
    and regime warning."""

    price: float
    method: str
    std_error: float | None = None
    diagnostics: object | None = None
    warning: str | None = None


@dataclass(frozen=True)
class TerminalLognormalLaw:
    """Matched lognormal law of the terminal price: LogN(mu_P, sigma_P^2)."""

    mu_P: float
    sigma_P: float


def _ndtr(x: float) -> float:
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2): within 45 eps of the exact
    value on [-8, 8], and no scipy import on the closed-form path."""
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _d1(inp: BsKernelInputs) -> float:
    """d1; where M1 / K_eff underflows to 0 (a worthless call), its limit -inf."""
    ratio = inp.M1 / inp.K_eff
    if ratio == 0.0:
        return -math.inf
    return (math.log(ratio) + 0.5 * inp.W * inp.W) / inp.W


def bs_call(inp: BsKernelInputs, orientation: int = 1) -> float:
    """df E[(o (Z - K_eff))+] for o = orientation: a call for o = +1,
    df (M1 N(d1) - K_eff N(d2)), a put for o = -1, df (K_eff N(-d2) - M1 N(-d1)).

    Without a strike (K_eff <= 0, Z > 0) or a spread (W <= 0) the value is the
    discounted intrinsic df max(o (M1 - K_eff), 0); adding 0.0 turns its -0.0
    at o = -1, M1 = K_eff into +0.0. Negation is exact, so o = -1 gives the
    put's bits.
    """
    o = orientation
    if inp.K_eff <= 0.0 or inp.W <= 0.0:
        return inp.df * (max(o * (inp.M1 - inp.K_eff), 0.0) + 0.0)
    d1 = _d1(inp)
    d2 = d1 - inp.W
    return inp.df * (o * inp.M1 * _ndtr(o * d1) - o * inp.K_eff * _ndtr(o * d2))


def price_from_fit(fit: ShiftedLognormalFit, c: OptionContract) -> float:
    """Call price under theta + o Z: the kernel in orientation o with K_eff = o (K - theta)."""
    o = fit.orientation
    lp = fit.log_params
    return bs_call(BsKernelInputs(lognormal_mean(lp), lp.sigma_X, o * (c.K - fit.theta), c.df), o)


def price_sln(moments: SampleMoments, c: OptionContract) -> PriceResult:
    """Fit theta +- LogN to terminal-price moments and price through the kernel."""
    fit = fit_shifted_lognormal(moments)
    return PriceResult(price=price_from_fit(fit, c), method="SLN", diagnostics=fit)


def _log_bracket(q: float, b: float, x: float) -> float:
    """The bracket of model.log_shape for one float: log(1 - q + q e^x), q = expit(b)."""
    if abs(x) <= 1.0:
        return math.log1p(q * math.expm1(x))
    u, v = -_softplus(b), x - _softplus(-b)
    return max(u, v) + math.log1p(math.exp(-abs(u - v)))


def ln_terminal_params(spec: ModelSpec, dyn: RateDynamics, T: float) -> TerminalLognormalLaw:
    """Matched lognormal terminal law.

    With delta = r_T - r0 ~ N(d, s^2), Y = (P/P0)^{-C/U} = (1 - q) e^{a1 delta} +
    q e^{a2 delta}, a1 = LC/U, a2 = a1 + C. LogN(mu_X, sigma_X^2) takes Y's first
    two moments, sigma_X^2 as log1p(sum_ij wi wj expm1(ai s aj s)) over the normalized
    means wi, so nothing cancels as C -> 0; raised to -U/C it is LogN(mu_P, sigma_P^2).
    """
    p, m = spec.duration, spec.market
    law = terminal_rate_law(m, dyn, T)
    d, s, b = law.mean - m.r0, law.std, p.C * (m.r0 - p.x0)
    a1 = p.L * p.C / p.U
    a1s, a2s = a1 * s, (a1 + p.C) * s  # formed first, so inf * 0 cannot arise
    g = p.C * d + 0.5 * (p.C * s) * (a1s + a2s)
    try:
        step = _log_bracket(spec.q, b, g)
        w1, w2 = math.exp(-_softplus(b) - step), math.exp(g - _softplus(-b) - step)
        e11, e12, e22 = math.expm1(a1s * a1s), math.expm1(a1s * a2s), math.expm1(a2s * a2s)
        var_x = math.log1p(w1 * w1 * e11 + 2.0 * w1 * w2 * e12 + w2 * w2 * e22)
    except OverflowError:
        raise NonFiniteResultError(
            f"matched lognormal overflows at C={p.C}, sigma={dyn.sigma}, T={T}"
        ) from None
    log_m1 = a1 * d + 0.5 * a1s * a1s + step
    if not (math.isfinite(log_m1) and math.isfinite(var_x)):
        raise NonFiniteResultError(f"matched lognormal has log M1 = {log_m1}, sigma_X^2 = {var_x}")
    scale = p.U / p.C
    return TerminalLognormalLaw(
        mu_P=math.log(m.P0) - scale * (log_m1 - 0.5 * var_x),
        sigma_P=scale * math.sqrt(var_x),
    )


def regime_warning(spec: ModelSpec, dyn: RateDynamics, T: float) -> str | None:
    """A warning when the terminal price is negatively skewed, else None.

    The third central moment comes from fixed quadrature over the rate law and
    warns only when it is negative beyond roundoff. The parametric lognormal
    assumes positive skew. The check costs more than the closed form itself,
    so delta_ln and gamma_ln leave it to their callers.
    """
    law = terminal_rate_law(spec.market, dyn, T)
    p = model_price(spec, law.mean + math.sqrt(2.0) * law.std * _PROXY_NODES)
    mean = float(_PROXY_WEIGHTS @ p)
    centered = p - mean
    weighted = _PROXY_WEIGHTS * centered
    m2, m3 = float(weighted @ centered), float(weighted @ centered**2)
    if m3 < -_UNRESOLVED_M3 * mean * m2:
        return (
            "parametric lognormal assumes positively skewed terminal prices; "
            "the terminal law at these parameters is negatively skewed "
            "(high curvature), so treat this value as out of regime"
        )
    return None


def ln_kernel(
    spec: ModelSpec, dyn: RateDynamics, c: OptionContract
) -> tuple[TerminalLognormalLaw, BsKernelInputs]:
    """Matched lognormal law and its kernel inputs: M1 = e^{mu_P + sigma_P^2/2}, W = sigma_P."""
    law = ln_terminal_params(spec, dyn, c.T)
    m1 = math.exp(law.mu_P + 0.5 * law.sigma_P * law.sigma_P)
    return law, BsKernelInputs(m1, law.sigma_P, c.K, c.df)


def price_ln(spec: ModelSpec, dyn: RateDynamics, c: OptionContract) -> PriceResult:
    """Closed-form call under the matched lognormal terminal law."""
    law, inp = ln_kernel(spec, dyn, c)
    return PriceResult(
        price=bs_call(inp),
        method="LN",
        diagnostics=law,
        warning=regime_warning(spec, dyn, c.T),
    )


def delta_ln(spec: ModelSpec, dyn: RateDynamics, c: OptionContract) -> float:
    """Exact dC_LN/dP0 = df e^{mu_P + sigma_P^2/2} N(d1) / P0.

    Exact because mu_P depends on P0 only through its log P0 term, while
    mu_X and sigma_X do not depend on P0 at all.
    """
    _, inp = ln_kernel(spec, dyn, c)
    if inp.W == 0.0:
        return inp.df * inp.M1 / spec.market.P0 if inp.M1 > c.K else 0.0
    return inp.df * inp.M1 * _ndtr(_d1(inp)) / spec.market.P0


def gamma_ln(spec: ModelSpec, dyn: RateDynamics, c: OptionContract) -> float:
    """Exact d2C_LN/dP0^2 = df e^{mu_P + sigma_P^2/2} phi(d1) / (P0^2 sigma_P)."""
    _, inp = ln_kernel(spec, dyn, c)
    if inp.W == 0.0:
        return 0.0
    d1 = _d1(inp)
    phi = math.exp(-0.5 * d1 * d1) / _SQRT_TWO_PI
    P0 = spec.market.P0
    p0_sq = P0**2
    if p0_sq >= sys.float_info.min:
        gamma = inp.df * inp.M1 * phi / (p0_sq * inp.W)
    elif P0 >= sys.float_info.min and not 0.0 < inp.M1 < sys.float_info.min:
        # P0^2 is subnormal or 0 here; dividing by P0 twice keeps every digit
        gamma = inp.df * inp.M1 * phi / inp.W / P0 / P0
    else:
        # a subnormal P0 or M1 holds a few digits at most, so gamma holds none
        raise NonFiniteResultError(f"gamma is unresolved at P0={P0}: P0 or M1 is subnormal")
    if not math.isfinite(gamma):
        raise NonFiniteResultError(f"gamma is {gamma} at P0={P0}")
    return gamma
