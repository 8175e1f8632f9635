"""Noise-free reference values for the benchmark's output checks.

Written from the model's equations, without importing the package under
test. The terminal rate is r = m + s z with z ~ N(0, 1), m = r0 + mu T and
s = sigma sqrt(T), and the price map

    P(r) = k exp(-L r) (1 + exp(C (r - x0)))^(-U/C),   P(r0) = P0,

is strictly decreasing in r. So the call payoff (P - K)+ is positive exactly
on z < z*, where P(m + s z*) = K, and every expectation below is a smooth
one-dimensional integral against the normal density, taken by composite
Gauss-Legendre quadrature on [Z_LO, z*] (and on [z*, z*_h] for the delta).

The log-level k is linear in P0, so the curve recalibrated at P0 + h is
P(r) (1 + h / P0): the common-random-number forward-difference delta
(C(P0 + h) - C(P0)) / h on one sample is the expectation of

    g(z) = df [((1 + h/P0) P - K)+ - (P - K)+] / h,

and its Monte Carlo standard error over n draws is sqrt(Var[g] / n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the normal mass below -12 (about 2e-33) is far under any standard error
Z_LO, Z_HI = -12.0, 12.0
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
DEFAULT_PANELS = 48


@dataclass(frozen=True)
class Model:
    """Duration curve, market, rate dynamics and contract terms except K."""

    L: float
    U: float
    C: float
    x0: float
    P0: float
    r0: float
    mu: float
    sigma: float
    T: float
    r_f: float

    @property
    def log_k(self) -> float:
        return math.log(self.P0) + self.L * self.r0 + (self.U / self.C) * _softplus(
            self.C * (self.r0 - self.x0)
        )

    @property
    def df(self) -> float:
        return math.exp(-self.r_f * self.T)

    @property
    def rate_mean(self) -> float:
        return self.r0 + self.mu * self.T

    @property
    def rate_std(self) -> float:
        return self.sigma * math.sqrt(self.T)

    def log_price(self, z):
        r = self.rate_mean + self.rate_std * np.asarray(z, dtype=float)
        return self.log_k - self.L * r - (self.U / self.C) * np.logaddexp(
            0.0, self.C * (r - self.x0)
        )


def _softplus(x: float) -> float:
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _nodes(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes on [a, b] and weights that include the normal density."""
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    z = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * _NODES
    w = half * _WEIGHTS * _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return z.ravel(), w.ravel()


def _crossing(model: Model, log_level: float) -> float:
    """z in [Z_LO, Z_HI] where log P = log_level, clamped to the ends."""
    if model.log_price(Z_HI) >= log_level:
        return Z_HI
    if model.log_price(Z_LO) <= log_level:
        return Z_LO
    lo, hi = Z_LO, Z_HI
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if model.log_price(mid) > log_level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mean_price(model: Model, panels: int = DEFAULT_PANELS) -> float:
    """E[P(r_T)]."""
    z, w = _nodes(Z_LO, Z_HI, panels)
    return float(np.sum(w * np.exp(model.log_price(z))))


def call(model: Model, K: float, n: int, panels: int = DEFAULT_PANELS) -> tuple[float, float]:
    """Discounted E[(P - K)+] and the standard error of an n-draw mean of it."""
    zs = _crossing(model, math.log(K))
    if zs <= Z_LO:
        return 0.0, 0.0
    z, w = _nodes(Z_LO, zs, panels)
    pay = model.df * np.maximum(np.exp(model.log_price(z)) - K, 0.0)
    mean = float(np.sum(w * pay))
    second = float(np.sum(w * pay * pay))
    return mean, math.sqrt(max(second - mean * mean, 0.0) / n)


def crn_delta(
    model: Model, K: float, bump: float, n: int, panels: int = DEFAULT_PANELS
) -> tuple[float, float]:
    """E[g] for the CRN forward-difference delta, and the SE of an n-draw mean."""
    grow = bump / model.P0
    zs = _crossing(model, math.log(K))
    zh = _crossing(model, math.log(K) - math.log1p(grow))
    mean = second = 0.0
    if zs > Z_LO:
        # both legs exercised: g = df P / P0
        z, w = _nodes(Z_LO, zs, panels)
        g = model.df * np.exp(model.log_price(z)) / model.P0
        mean += float(np.sum(w * g))
        second += float(np.sum(w * g * g))
    if zh > zs:
        # only the bumped leg exercised
        z, w = _nodes(max(zs, Z_LO), zh, 1)
        g = model.df * np.maximum((1.0 + grow) * np.exp(model.log_price(z)) - K, 0.0) / bump
        mean += float(np.sum(w * g))
        second += float(np.sum(w * g * g))
    return mean, math.sqrt(max(second - mean * mean, 0.0) / n)


def ln_mean_price(model: Model) -> float:
    """Mean of the matched lognormal law of P that the LN engine prices under.

    P^(-C/U) = k^(-C/U) (e^{a1 r} + e^{a2 r - C x0}) with a1 = L C / U and
    a2 = a1 + C, a sum of two lognormals in the same normal r. One lognormal
    with the sum's first two moments, raised to -U/C, is the matched law.
    """
    m, v = model.rate_mean, model.rate_std**2
    a1 = model.L * model.C / model.U
    a2 = a1 + model.C
    cx = model.C * model.x0
    log_m1 = np.logaddexp(a1 * m + 0.5 * a1 * a1 * v, a2 * m - cx + 0.5 * a2 * a2 * v)
    log_m2 = np.logaddexp(
        np.logaddexp(2.0 * a1 * m + 2.0 * a1 * a1 * v, 2.0 * a2 * m - 2.0 * cx + 2.0 * a2 * a2 * v),
        math.log(2.0) + (a1 + a2) * m - cx + 0.5 * (a1 + a2) ** 2 * v,
    )
    s2 = max(float(log_m2) - 2.0 * float(log_m1), 0.0)
    mu_sum = float(log_m1) - 0.5 * s2
    scale = model.U / model.C
    mu_p = model.log_k - scale * mu_sum
    sigma_p = scale * math.sqrt(s2)
    return math.exp(mu_p + 0.5 * sigma_p * sigma_p)
