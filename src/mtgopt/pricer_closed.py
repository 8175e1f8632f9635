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
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .distfit import (
    SampleMoments,
    ShiftedLognormalFit,
    TwoLognormalSpec,
    fit_shifted_lognormal,
    lognormal_mean,
    match_two_lognormal_sum,
)
from .model import (
    ModelSpec,
    OptionContract,
    RateDynamics,
    price as model_price,
    terminal_rate_law,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

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


def _d1(inp: BsKernelInputs) -> float:
    return (math.log(inp.M1 / inp.K_eff) + 0.5 * inp.W * inp.W) / inp.W


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
    return inp.df * (o * inp.M1 * ndtr(o * d1) - o * inp.K_eff * ndtr(o * d2))


def price_from_fit(fit: ShiftedLognormalFit, c: OptionContract) -> float:
    """Call price under theta + o Z: the kernel in orientation o with K_eff = o (K - theta)."""
    o = fit.orientation
    lp = fit.log_params
    return bs_call(BsKernelInputs(lognormal_mean(lp), lp.sigma_X, o * (c.K - fit.theta), c.df), o)


def price_sln(moments: SampleMoments, c: OptionContract) -> PriceResult:
    """Fit theta +- LogN to terminal-price moments and price through the kernel."""
    fit = fit_shifted_lognormal(moments)
    return PriceResult(price=price_from_fit(fit, c), method="SLN", diagnostics=fit)


def ln_terminal_params(
    spec: ModelSpec, dyn: RateDynamics, T: float
) -> TerminalLognormalLaw:
    """Matched lognormal terminal law.

    P(r_T)^{-C/U} = e^{X1} + e^{X2} with X1 = (LC/U) r_T - (C/U) log k and
    X2 = C(L/U+1) r_T - C x0 - (C/U) log k; both are affine in the same normal
    r_T, hence perfectly correlated (cov = sigma1 sigma2). Matching the sum by
    one lognormal and raising to -U/C gives mu_P = -(U/C) mu_X + log k,
    sigma_P = (U/C) sigma_X.
    """
    p = spec.duration
    law = terminal_rate_law(spec.market, dyn, T)
    a1 = p.L * p.C / p.U
    a2 = p.C * (p.L / p.U + 1.0)
    v = law.std * law.std
    two = TwoLognormalSpec(
        mu1=a1 * law.mean,
        sigma1_sq=a1 * a1 * v,
        mu2=a2 * law.mean - p.C * p.x0,
        sigma2_sq=a2 * a2 * v,
        cov=a1 * a2 * v,
    )
    matched = match_two_lognormal_sum(two)
    return TerminalLognormalLaw(
        mu_P=-(p.U / p.C) * matched.mu_X + spec.log_k,
        sigma_P=(p.U / p.C) * matched.sigma_X,
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

    Exact because mu_P depends on P0 only through log k (k is linear in P0)
    while mu_X and sigma_X do not depend on P0 at all.
    """
    _, inp = ln_kernel(spec, dyn, c)
    if inp.W == 0.0:
        return inp.df * inp.M1 / spec.market.P0 if inp.M1 > c.K else 0.0
    return inp.df * inp.M1 * ndtr(_d1(inp)) / spec.market.P0


def gamma_ln(spec: ModelSpec, dyn: RateDynamics, c: OptionContract) -> float:
    """Exact d2C_LN/dP0^2 = df e^{mu_P + sigma_P^2/2} phi(d1) / (P0^2 sigma_P)."""
    _, inp = ln_kernel(spec, dyn, c)
    if inp.W == 0.0:
        return 0.0
    d1 = _d1(inp)
    phi = math.exp(-0.5 * d1 * d1) / _SQRT_TWO_PI
    return inp.df * inp.M1 * phi / (spec.market.P0**2 * inp.W)
