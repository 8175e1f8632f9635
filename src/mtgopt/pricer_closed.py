"""Closed-form pricing engines.

Three pieces: a shifted Black-Scholes kernel over a lognormal underlier with
an effective strike, in orientation o = +-1 (a call on Z or a put on Z);
shifted-lognormal pricing, which fits theta + o Z to terminal-price moments and
prices through the kernel with K_eff = o (K - theta); and the
parametric lognormal, which matches P/P0 in closed form by writing
(P/P0)^{-1/scale} as a sum of two perfectly correlated lognormals and prices
the kernel on (M1/P0, K/P0), so price and Greeks are multiples of the spot and
need no sample at all.

The parametric route assumes positively skewed terminal prices (low
curvature); results outside that regime carry a warning rather than an error.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .distfit import SampleMoments, ShiftedLognormalFit, fit_shifted_lognormal, lognormal_mean
from .errors import NonFiniteResultError
from .model import MAX_EXP_ARG, ModelSpec, OptionContract, RateDynamics, _softplus, terminal_rate_law

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

# fixed quadrature for the regime proxy: enough nodes to sign the third
# central moment of the smooth terminal-price curve. The nodes z and the
# weights w / sqrt(pi) of numpy.polynomial.hermite.hermgauss(21), bit for bit
_PROXY_NODES = (
    -5.550351873264678, -4.773992343411219, -4.12199554749184, -3.5319728771376777,
    -2.979991207704598, -2.453552124512838, -1.9449629491862537, -1.448934250650732,
    -0.961499634418369, -0.47945070707910753, 0.0, 0.47945070707910753,
    0.961499634418369, 1.448934250650732, 1.9449629491862537, 2.453552124512838,
    2.979991207704598, 3.5319728771376777, 4.12199554749184, 4.773992343411219,
    5.550351873264678,
)
_PROXY_WEIGHTS = (
    2.098991219565662e-14, 4.975368604121714e-11, 1.4506612844930877e-08,
    1.2253548361482539e-06, 4.2192347425516774e-05, 0.0007080477954815355,
    0.0064396970514087855, 0.03395272978654286, 0.10839228562641945,
    0.21533371569505977, 0.27026018357287707, 0.21533371569505977,
    0.10839228562641945, 0.03395272978654286, 0.0064396970514087855,
    0.0007080477954815355, 4.2192347425516774e-05, 1.2253548361482539e-06,
    1.4506612844930877e-08, 4.975368604121714e-11, 2.098991219565662e-14,
)
# roundoff of a few ulps in each quadrature price moves the third moment by
# about 3 m2 times that, so a third moment smaller than 100 eps * mean * m2 is
# not resolved
_UNRESOLVED_M3 = 100.0 * sys.float_info.epsilon


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
    """Matched lognormal law of the terminal price relative to the spot:
    P/P0 ~ LogN(mu, sigma_P^2), so P ~ LogN(mu_P, sigma_P^2)."""

    mu: float
    sigma_P: float
    P0: float

    @property
    def mu_P(self) -> float:
        return math.log(self.P0) + self.mu


def _ndtr(x: float) -> float:
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2): within 45 eps of the exact
    value on [-8, 8], and no scipy import on the closed-form path."""
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _d1(inp: BsKernelInputs) -> float:
    """d1; its limit +inf where K_eff underflowed to 0 (a call that cannot miss)
    and -inf where M1 / K_eff underflows to 0 (a worthless call)."""
    if inp.K_eff == 0.0:
        return math.inf
    ratio = inp.M1 / inp.K_eff
    if ratio == 0.0:
        return -math.inf
    return (math.log(ratio) + 0.5 * inp.W * inp.W) / inp.W


def bs_call(inp: BsKernelInputs, orientation: int = 1) -> float:
    """df E[(o (Z - K_eff))+] for o = orientation: a call for o = +1,
    df (M1 N(d1) - K_eff N(d2)), a put for o = -1, df (K_eff N(-d2) - M1 N(-d1)).

    Without a strike (K_eff <= 0, Z > 0), a spread (W <= 0) or with an infinite
    strike (K_eff = inf: K/P0 overflowed, a worthless call) the value is the
    discounted intrinsic df max(o (M1 - K_eff), 0); adding 0.0 turns its -0.0 at
    o = -1, M1 = K_eff into +0.0. Negation is exact, so o = -1 gives the put's bits.
    """
    o = orientation
    if inp.K_eff <= 0.0 or inp.W <= 0.0 or inp.K_eff == math.inf:
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


def _log_bracket(q: float, sp_b: float, sp_nb: float, x: float) -> float:
    """The bracket of model.log_shape for one float: log(1 - q + q e^x), q = expit(b),
    with sp_b = softplus(b) and sp_nb = softplus(-b)."""
    if abs(x) <= 1.0:
        return math.log1p(q * math.expm1(x))
    u, v = -sp_b, x - sp_nb
    return max(u, v) + math.log1p(math.exp(-abs(u - v)))


def ln_terminal_params(spec: ModelSpec, dyn: RateDynamics, T: float) -> TerminalLognormalLaw:
    """Matched lognormal law of P/P0 at expiry T.

    With delta = r_T - r0 ~ N(d, s^2), Y = (P/P0)^{-C/U} = (1 - q) e^{a1 delta} +
    q e^{a2 delta}, a1 = LC/U, a2 = a1 + C. LogN(mu_X, sigma_X^2) takes Y's first
    two moments, sigma_X^2 as log1p(sum_ij wi wj expm1(ai s aj s)) over the normalized
    means wi, so nothing cancels as C -> 0; raised to -U/C it is LogN(mu, sigma_P^2).
    """
    p, m = spec.duration, spec.market
    law = terminal_rate_law(dyn, T)
    d, s, b = law.mean, law.std, p.C * (m.r0 - p.x0)
    a1 = p.L * p.C / p.U
    a1s, a2s = a1 * s, (a1 + p.C) * s  # formed first, so inf * 0 cannot arise
    g = p.C * d + 0.5 * (p.C * s) * (a1s + a2s)
    sp_b, sp_nb = _softplus(b), _softplus(-b)
    try:
        step = _log_bracket(spec.q, sp_b, sp_nb, g)
        w1, w2 = math.exp(-sp_b - step), math.exp(g - sp_nb - step)
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
        mu=-scale * (log_m1 - 0.5 * var_x), sigma_P=scale * math.sqrt(var_x), P0=m.P0
    )


def regime_warning(spec: ModelSpec, dyn: RateDynamics, T: float) -> str | None:
    """A warning when the terminal price is negatively skewed, else None.

    The third central moment comes from fixed quadrature over the rate law and
    warns only when it is negative beyond roundoff. The parametric lognormal
    assumes positive skew. The moments are those of P/P0 = e^{-A - B} (the
    terms of model.log_shape): the test is homogeneous of degree 3 in the
    price, so the spot changes no decision and cannot overflow it. The check
    costs more than the closed form itself, so delta_ln and gamma_ln leave it
    to their callers.
    """
    p, m, q = spec.duration, spec.market, spec.q
    law = terminal_rate_law(dyn, T)
    C, centre, spread = p.C, law.mean, math.sqrt(2.0) * law.std
    b = C * (m.r0 - p.x0)
    sp_b, sp_nb, low, high = _softplus(b), _softplus(-b), p.L / C, p.U / C
    y, mean, m2, m3 = [], 0.0, 0.0, 0.0
    try:
        for w, z in zip(_PROXY_WEIGHTS, _PROXY_NODES):
            x = (centre + spread * z) * C
            yi = math.exp(-x * low - _log_bracket(q, sp_b, sp_nb, x) * high)
            y.append(yi)
            mean += w * yi
    except OverflowError:
        mean = math.nan  # so the check below names the parameters
    for w, yi in zip(_PROXY_WEIGHTS, y):
        c = yi - mean
        wc2 = w * c * c
        m2 += wc2
        m3 += wc2 * c
    if not (math.isfinite(mean) and math.isfinite(m2) and math.isfinite(m3)):
        raise NonFiniteResultError(
            f"regime proxy is not finite at C={p.C}, sigma={dyn.sigma}, T={T}"
        )
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
    """Matched law of P/P0 and its kernel inputs: the mean M1/P0 = e^{mu + sigma_P^2/2},
    W = sigma_P, and the strike K/P0. Prices on them are multiples of P0."""
    law = ln_terminal_params(spec, dyn, c.T)
    log_mean = law.mu + 0.5 * law.sigma_P * law.sigma_P
    if not log_mean <= MAX_EXP_ARG:
        raise NonFiniteResultError(
            f"matched lognormal mean overflows at C={spec.duration.C}, mu={dyn.mu}, "
            f"sigma={dyn.sigma}, T={c.T}"
        )
    return law, BsKernelInputs(math.exp(log_mean), law.sigma_P, c.K / spec.market.P0, c.df)


def price_ln(spec: ModelSpec, dyn: RateDynamics, c: OptionContract) -> PriceResult:
    """Closed-form call under the matched lognormal terminal law."""
    law, inp = ln_kernel(spec, dyn, c)
    return PriceResult(
        price=spec.market.P0 * bs_call(inp),
        method="LN",
        diagnostics=law,
        warning=regime_warning(spec, dyn, c.T),
    )


def delta_from_kernel(inp: BsKernelInputs) -> float:
    """df (M1/P0) N(d1) on the kernel inputs of ln_kernel."""
    if inp.W == 0.0:
        return inp.df * inp.M1 if inp.M1 > inp.K_eff else 0.0
    return inp.df * inp.M1 * _ndtr(_d1(inp))


def gamma_from_kernel(inp: BsKernelInputs, P0: float) -> float:
    """df (M1/P0) phi(d1) / (W P0) on the kernel inputs of ln_kernel at spot P0."""
    if inp.W == 0.0:
        return 0.0
    d1 = _d1(inp)
    phi = math.exp(-0.5 * d1 * d1) / _SQRT_TWO_PI
    gamma = inp.df * inp.M1 * phi / inp.W / P0
    if not math.isfinite(gamma):
        raise NonFiniteResultError(f"gamma is {gamma} at P0={P0}")
    return gamma


def delta_ln(spec: ModelSpec, dyn: RateDynamics, c: OptionContract) -> float:
    """Exact dC_LN/dP0 = df e^{mu + sigma_P^2/2} N(d1).

    Exact because C_LN is P0 times a function of K/P0, and the law of P/P0
    does not depend on P0 at all.
    """
    return delta_from_kernel(ln_kernel(spec, dyn, c)[1])


def gamma_ln(spec: ModelSpec, dyn: RateDynamics, c: OptionContract) -> float:
    """Exact d2C_LN/dP0^2 = df e^{mu + sigma_P^2/2} phi(d1) / (sigma_P P0)."""
    return gamma_from_kernel(ln_kernel(spec, dyn, c)[1], spec.market.P0)
