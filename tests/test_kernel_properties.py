"""Property tests of the Black-Scholes kernel and the fitted-law pricer.

Each test checks one property over the kernel's domain: a lognormal mean M1,
a log-std W (0 included), an effective strike K_eff of either sign and a
discount factor df, in both orientations. Examples are derandomized and
bounded, so every run checks the same cases.
"""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from mtgopt.distfit import LognormalParams, ShiftedLognormalFit, lognormal_mean
from mtgopt.model import OptionContract
from mtgopt.pricer_closed import bs_call, price_from_fit

bounded = settings(derandomize=True, max_examples=200, deadline=None, database=None)

orientations = st.sampled_from((1, -1))
m1s = st.floats(1e-3, 1e3)
ws = st.floats(0.0, 3.0)
dfs = st.floats(0.5, 1.0)
strikes = st.floats(1e-3, 1e3)
# (M1, W, K_eff, df), the kernel's four arguments
kernel_inputs = st.tuples(m1s, ws, st.floats(-1e3, 1e3), dfs)


def _fit(theta: float, orientation: int, mu_X: float, sigma_X: float) -> ShiftedLognormalFit:
    return ShiftedLognormalFit(theta, orientation, LognormalParams(mu_X, sigma_X), math.expm1(sigma_X**2))


fits = st.builds(_fit, st.floats(-200.0, 200.0), orientations, st.floats(-5.0, 6.0), st.floats(0.0, 2.0))


def _scale(inp: tuple) -> float:
    m1, _, k_eff, df = inp
    return df * (m1 + abs(k_eff))


@bounded
@given(kernel_inputs, orientations)
def test_kernel_finite(inp, o):
    assert math.isfinite(bs_call(*inp, o))


@bounded
@given(m1s, ws, st.floats(0.0, 1e3), dfs)
def test_kernel_bounds(m1, w, k_eff, df):
    # 0 <= call <= df M1 and 0 <= put <= df K_eff for K_eff >= 0
    assert 0.0 <= bs_call(m1, w, k_eff, df) <= df * m1
    assert 0.0 <= bs_call(m1, w, k_eff, df, -1) <= df * k_eff


@bounded
@given(kernel_inputs)
def test_kernel_put_call_parity(inp):
    m1, _, k_eff, df = inp
    lhs = bs_call(*inp) - bs_call(*inp, -1)
    assert abs(lhs - df * (m1 - k_eff)) <= 1e-12 * _scale(inp)


@bounded
@given(kernel_inputs, orientations, st.floats(1e-6, 100.0))
def test_kernel_monotone_and_convex_in_strike(inp, o, h):
    # o * value is non-increasing in K_eff (a call falls, a put rises), and
    # both are convex
    m1, w, k_eff, df = inp
    lo, mid, hi = (bs_call(m1, w, k, df, o) for k in (k_eff - h, k_eff, k_eff + h))
    tol = 1e-12 * (_scale(inp) + df * h)
    assert o * (hi - mid) <= tol and o * (mid - lo) <= tol
    assert lo + hi - 2.0 * mid >= -tol


@bounded
@given(m1s, dfs)
def test_kernel_degenerate_at_the_money_put_is_positive_zero(m1, df):
    got = bs_call(m1, 0.0, m1, df, -1)
    assert got == 0.0 and math.copysign(1.0, got) == 1.0


@bounded
@given(kernel_inputs, orientations)
def test_kernel_rerun_bit_identical(inp, o):
    assert bs_call(*inp, o).hex() == bs_call(*inp, o).hex()


@bounded
@given(fits, strikes)
def test_fit_price_finite(fit, K):
    assert math.isfinite(price_from_fit(fit, OptionContract(K, 0.25, 0.0209)))


@bounded
@given(fits, strikes)
def test_fit_price_bounds(fit, K):
    # theta + o Z - K <= Z + (theta - K)+ for o = +1 and <= (theta - K)+ for
    # o = -1, so 0 <= price <= df (M1 + (theta - K)+) in both orientations
    c = OptionContract(K, 0.25, 0.0209)
    m1 = lognormal_mean(fit.log_params)
    bound = c.df * (m1 + max(fit.theta - K, 0.0))
    assert 0.0 <= price_from_fit(fit, c) <= bound * (1.0 + 1e-12)


@bounded
@given(fits, strikes, st.floats(1e-6, 100.0))
def test_fit_price_monotone_and_convex_in_strike(fit, K, h):
    lo, mid, hi = (price_from_fit(fit, OptionContract(k, 0.25, 0.0209)) for k in (K, K + h, K + 2.0 * h))
    m1 = lognormal_mean(fit.log_params)
    tol = 1e-12 * (m1 + abs(fit.theta) + K + 2.0 * h)
    assert hi - mid <= tol and mid - lo <= tol
    assert lo + hi - 2.0 * mid >= -tol


@bounded
@given(fits, strikes)
def test_fit_price_rerun_bit_identical(fit, K):
    c = OptionContract(K, 0.25, 0.0209)
    assert price_from_fit(fit, c).hex() == price_from_fit(fit, c).hex()
