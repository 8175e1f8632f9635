"""Closed-form pricing engines.

Three pieces: a shifted Black-Scholes kernel and its Greeks on four floats,
the mean M1 and log-std W of a lognormal Z, an effective strike K_eff and a
discount factor df, in orientation o = +-1 (a call on Z or a put on Z);
shifted-lognormal pricing, which fits theta + o Z to the moments of P/P0 and
prices P0 times the kernel with K_eff = o (K/P0 - theta); and the parametric
lognormal, which matches P/P0 in closed form by writing (P/P0)^{-1/scale} as
a sum of two perfectly correlated lognormals and prices the kernel on
(M1/P0, sigma_P, K/P0). Each LN entry point works the law out at most once
per call and keeps the last law, so the next entry point called on the same
spec and dynamics objects and an equal expiry reads it. Both prices, and the
LN Greeks, are multiples of the spot and need no sample at all: the SLN's
moments come from quadrature_moments, 21-node Gauss-Hermite quadrature over
the rate law, which is also the regime proxy.

The parametric route assumes positively skewed terminal prices (low
curvature); results outside that regime carry a warning rather than an
error. The warning signs the third moment of the same quadrature.
"""
from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .distfit import LognormalParams, SampleMoments, ShiftedLognormalFit
from .distfit import fit_shifted_lognormal, lognormal_mean
from .errors import DegenerateSampleError, NonFiniteResultError
from .model import MAX_EXP_ARG, ModelSpec, NormalLaw, OptionContract, RateDynamics, terminal_rate_law

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_SQRT_TWO = math.sqrt(2.0)

# fixed quadrature for the moments of P/P0: on the smooth terminal-price
# curve 21 nodes give the mean, m2 and m3 of 81 nodes to 5e-13 relative at
# the default bundle (C = 0.5 to 40), enough to sign m3 and to fit the SLN.
# The nodes z and the weights w / sqrt(pi) of
# numpy.polynomial.hermite.hermgauss(21), bit for bit
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
_PROXY = tuple(zip(_PROXY_WEIGHTS, _PROXY_NODES))
# roundoff of a few ulps in each quadrature price moves the third moment by
# about 3 m2 times that, so a third moment smaller than 100 eps * mean * m2 is
# not resolved
_UNRESOLVED_M3 = 100.0 * sys.float_info.epsilon


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


def _d1(M1: float, W: float, K_eff: float) -> float:
    """d1; its limit +inf where K_eff underflowed to 0 (a call that cannot miss)
    and -inf where M1 / K_eff underflows to 0 (a worthless call)."""
    if K_eff == 0.0:
        return math.inf
    ratio = M1 / K_eff
    if ratio == 0.0:
        return -math.inf
    return (math.log(ratio) + 0.5 * W * W) / W


def bs_call(M1: float, W: float, K_eff: float, df: float, orientation: int = 1) -> float:
    """df E[(o (Z - K_eff))+] for o = orientation: a call for o = +1,
    df (M1 N(d1) - K_eff N(d2)), a put for o = -1, df (K_eff N(-d2) - M1 N(-d1)).

    Without a strike (K_eff <= 0, Z > 0), a spread (W <= 0) or with an infinite
    strike (K_eff = inf: K/P0 overflowed, a worthless call) the value is the
    discounted intrinsic df max(o (M1 - K_eff), 0); adding 0.0 turns its -0.0 at
    o = -1, M1 = K_eff into +0.0. Negation is exact, so o = -1 gives the put's bits.
    """
    o = orientation
    if K_eff <= 0.0 or W <= 0.0 or K_eff == math.inf:
        return df * (max(o * (M1 - K_eff), 0.0) + 0.0)
    d1 = _d1(M1, W, K_eff)
    d2 = d1 - W
    return df * (o * M1 * _ndtr(o * d1) - o * K_eff * _ndtr(o * d2))


def price_from_fit(fit: ShiftedLognormalFit, c: OptionContract, P0: float = 1.0) -> float:
    """Call price per unit spot under theta + o Z fitted to P/P0: the kernel in
    orientation o with K_eff = o (K/P0 - theta), whose limits price a K/P0 of 0
    or inf. P0 = 1 prices a fit of P itself."""
    o = fit.orientation
    lp = fit.log_params
    return bs_call(lognormal_mean(lp), lp.sigma_X, o * (c.K / P0 - fit.theta), c.df, o)


def price_sln(moments: SampleMoments, c: OptionContract, P0: float = 1.0) -> PriceResult:
    """Fit theta +- LogN to moments of P/P0 (of P at P0 = 1), price P0 times the
    kernel, and report the fit scaled to P: theta times P0, mu_X plus log P0."""
    fit = fit_shifted_lognormal(moments)
    lp = fit.log_params
    of_p = replace(fit, theta=P0 * fit.theta, log_params=LognormalParams(lp.mu_X + math.log(P0), lp.sigma_X))
    return PriceResult(price=P0 * price_from_fit(fit, c, P0), method="SLN", diagnostics=of_p)


def law_leaves(spec: ModelSpec, dyn: RateDynamics, T: float) -> str:
    """The leaves that scale the law of P/P0, as a message that it overflows names them."""
    p = spec.duration
    return f"L={p.L}, U={p.U}, C={p.C}, mu={dyn.mu}, sigma={dyn.sigma}, T={T}"


@contextmanager
def naming_law(spec: ModelSpec, dyn: RateDynamics, T: float):
    """Name the leaves of the law of P/P0 in a DegenerateSampleError from inside (a fit of its moments)."""
    try:
        yield
    except DegenerateSampleError as exc:
        raise DegenerateSampleError(f"{exc} at {law_leaves(spec, dyn, T)}") from None


def _log_bracket(spec: ModelSpec, x: float) -> float:
    """The bracket of model.log_shape for one float: log(1 - q + q e^x)."""
    if abs(x) <= 1.0:
        return math.log1p(spec.q * math.expm1(x))
    u, v = spec.log_1mq, x + spec.log_q
    return max(u, v) + math.log1p(math.exp(-abs(u - v)))


def _matched_law(spec: ModelSpec, dyn: RateDynamics, T: float, law: NormalLaw) -> tuple[float, float, float]:
    """(mu, sigma_P, M1/P0) of the matched lognormal law of P/P0 on the rate law N(d, s^2)."""
    p = spec.duration
    C = p.C
    d, s = law
    a1 = p.L * C / p.U
    a1s, a2s = a1 * s, (a1 + C) * s  # formed first, so inf * 0 cannot arise
    g = C * d + 0.5 * (C * s) * (a1s + a2s)
    try:
        step = _log_bracket(spec, g)
        w1, w2 = math.exp(spec.log_1mq - step), math.exp(g + spec.log_q - step)
        e11, e12, e22 = math.expm1(a1s * a1s), math.expm1(a1s * a2s), math.expm1(a2s * a2s)
        var_x = math.log1p(w1 * w1 * e11 + 2.0 * w1 * w2 * e12 + w2 * w2 * e22)
    except OverflowError:
        step = var_x = math.nan  # so the check below names the leaves
    log_m1 = a1 * d + 0.5 * a1s * a1s + step
    if not (math.isfinite(log_m1) and math.isfinite(var_x)):
        raise NonFiniteResultError(f"matched lognormal overflows at {law_leaves(spec, dyn, T)}")
    scale = p.U / C
    mu, sigma_P = -scale * (log_m1 - 0.5 * var_x), scale * math.sqrt(var_x)
    log_mean = mu + 0.5 * sigma_P * sigma_P
    if not log_mean <= MAX_EXP_ARG:
        raise NonFiniteResultError(f"matched lognormal mean overflows at {law_leaves(spec, dyn, T)}")
    return mu, sigma_P, math.exp(log_mean)


# the last law _law worked out: (spec, dyn, T, rate law, matched law)
_last_law = None


def _law(spec: ModelSpec, dyn: RateDynamics, T: float) -> tuple[NormalLaw, tuple[float, float, float]]:
    """The rate law and _matched_law's (mu, sigma_P, M1/P0) at (spec, dyn, T).

    The last result is kept for a call on the same spec and dyn objects and
    an equal T: both are frozen and the memo holds them, so no other object
    can take their ids. A call that raises keeps nothing, so an error is
    raised afresh and the memo holds one law at most. The memo is one tuple,
    read and replaced whole, so threads that share it can miss each other's
    law but never read it.
    """
    global _last_law
    last = _last_law
    if last is not None and last[0] is spec and last[1] is dyn and last[2] == T:
        return last[3], last[4]
    law = terminal_rate_law(dyn, T)
    matched = _matched_law(spec, dyn, T, law)
    _last_law = (spec, dyn, T, law, matched)
    return law, matched


def _quadrature(spec: ModelSpec, dyn: RateDynamics, T: float, law: NormalLaw) -> tuple[float, float, float]:
    """(mean, m2, m3) of f = P/P0 = e^{-A - B} (the terms of model.log_shape)
    on the 21 Gauss-Hermite nodes of the rate law. No spot enters them."""
    p = spec.duration
    C = p.C
    centre, s = law
    spread, low, high = _SQRT_TWO * s, p.L / C, p.U / C
    y, mean, m2, m3 = [], 0.0, 0.0, 0.0
    try:
        for w, z in _PROXY:
            x = (centre + spread * z) * C
            yi = math.exp(-x * low - _log_bracket(spec, x) * high)
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
            f"quadrature moments of P/P0 are not finite at {law_leaves(spec, dyn, T)}"
        )
    return mean, m2, m3


def quadrature_moments(spec: ModelSpec, dyn: RateDynamics, T: float) -> SampleMoments:
    """Mean and central moments m2, m3 of P/P0 at expiry T on the quadrature
    nodes: no sample, so no n or seed, and no spot to overflow them. An m3
    that roundoff cannot resolve (see _UNRESOLVED_M3) is 0.0, so a fit takes
    no orientation from it."""
    mean, m2, m3 = _quadrature(spec, dyn, T, terminal_rate_law(dyn, T))
    if abs(m3) < _UNRESOLVED_M3 * mean * m2:
        m3 = 0.0
    return SampleMoments(mean, m2, m3, len(_PROXY))


def _proxy_warning(spec: ModelSpec, dyn: RateDynamics, T: float, law: NormalLaw) -> str | None:
    """The regime proxy of regime_warning on the rate law: the sign of m3."""
    mean, m2, m3 = _quadrature(spec, dyn, T, law)
    if m3 < -_UNRESOLVED_M3 * mean * m2:
        return (
            "parametric lognormal assumes positively skewed terminal prices; "
            "the terminal law at these parameters is negatively skewed "
            "(high curvature), so treat this value as out of regime"
        )
    return None


def ln_terminal_params(spec: ModelSpec, dyn: RateDynamics, T: float) -> TerminalLognormalLaw:
    """Matched lognormal law of P/P0 at expiry T.

    With delta = r_T - r0 ~ N(d, s^2), Y = (P/P0)^{-C/U} = (1 - q) e^{a1 delta} +
    q e^{a2 delta}, a1 = LC/U, a2 = a1 + C. LogN(mu_X, sigma_X^2) takes Y's first
    two moments, sigma_X^2 as log1p(sum_ij wi wj expm1(ai s aj s)) over the normalized
    means wi, so nothing cancels as C -> 0; raised to -U/C it is LogN(mu, sigma_P^2).
    """
    mu, sigma_P, _ = _law(spec, dyn, T)[1]
    return TerminalLognormalLaw(mu=mu, sigma_P=sigma_P, P0=spec.market.P0)


def regime_warning(spec: ModelSpec, dyn: RateDynamics, T: float) -> str | None:
    """A warning when the terminal price is negatively skewed, else None.

    The third central moment comes from fixed quadrature over the rate law and
    warns only when it is negative beyond roundoff. The parametric lognormal
    assumes positive skew. The moments are those of P/P0 = e^{-A - B} (the
    terms of model.log_shape): the test is homogeneous of degree 3 in the
    price, so the spot changes no decision and cannot overflow it. The check
    costs more than the matched law, so delta_ln and gamma_ln leave it to
    their callers.
    """
    return _proxy_warning(spec, dyn, T, terminal_rate_law(dyn, T))


def ln_kernel(spec: ModelSpec, dyn: RateDynamics, T: float) -> tuple[float, float]:
    """(M1/P0, sigma_P) of the matched law of P/P0 at expiry T: with K/P0 the
    kernel's inputs, on which prices are multiples of P0."""
    _, sigma_P, m1 = _law(spec, dyn, T)[1]
    return m1, sigma_P


def price_ln(spec: ModelSpec, dyn: RateDynamics, c: OptionContract) -> PriceResult:
    """Closed-form call under the matched lognormal terminal law."""
    law, (mu, sigma_P, m1) = _law(spec, dyn, c.T)
    P0 = spec.market.P0
    return PriceResult(
        price=P0 * bs_call(m1, sigma_P, c.K / P0, c.df),
        method="LN",
        diagnostics=TerminalLognormalLaw(mu=mu, sigma_P=sigma_P, P0=P0),
        warning=_proxy_warning(spec, dyn, c.T, law),
    )


def delta_from_kernel(M1: float, W: float, K_eff: float, df: float) -> float:
    """df (M1/P0) N(d1) on M1 = M1/P0, W = sigma_P and K_eff = K/P0."""
    if W == 0.0:
        return df * M1 if M1 > K_eff else 0.0
    return df * M1 * _ndtr(_d1(M1, W, K_eff))


def gamma_from_kernel(M1: float, W: float, K_eff: float, df: float, P0: float) -> float:
    """df (M1/P0) phi(d1) / (W P0) on M1 = M1/P0, W = sigma_P, K_eff = K/P0 at spot P0."""
    if W == 0.0:
        return 0.0
    d1 = _d1(M1, W, K_eff)
    phi = math.exp(-0.5 * d1 * d1) / _SQRT_TWO_PI
    gamma = df * M1 * phi / W / P0
    if not math.isfinite(gamma):
        raise NonFiniteResultError(f"gamma is {gamma} at P0={P0}")
    return gamma


def delta_ln(spec: ModelSpec, dyn: RateDynamics, c: OptionContract) -> float:
    """Exact dC_LN/dP0 = df e^{mu + sigma_P^2/2} N(d1).

    Exact because C_LN is P0 times a function of K/P0, and the law of P/P0
    does not depend on P0 at all.
    """
    _, sigma_P, m1 = _law(spec, dyn, c.T)[1]
    return delta_from_kernel(m1, sigma_P, c.K / spec.market.P0, c.df)


def gamma_ln(spec: ModelSpec, dyn: RateDynamics, c: OptionContract) -> float:
    """Exact d2C_LN/dP0^2 = df e^{mu + sigma_P^2/2} phi(d1) / (sigma_P P0)."""
    _, sigma_P, m1 = _law(spec, dyn, c.T)[1]
    return gamma_from_kernel(m1, sigma_P, c.K / spec.market.P0, c.df, spec.market.P0)
