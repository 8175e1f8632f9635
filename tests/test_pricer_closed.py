"""Closed-form pricers: kernel identities, parametric chain, exact Greeks."""
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from conftest import (
    DEFAULT_CONTRACT,
    DEFAULT_DYNAMICS,
    DEFAULT_MARKET,
    default_duration,
    default_spec,
    implied_moments,
    regime_verdicts,
)
import mtgopt
from mtgopt import model, pricer_closed
from mtgopt.distfit import SampleMoments, central_moments, fit_shifted_lognormal
from mtgopt.errors import NonFiniteResultError, ValidationError
from mtgopt.mc_engine import McConfig, crn_delta, price_mc, simulate_terminal_prices
from mtgopt.model import (
    DurationParams,
    MarketState,
    ModelSpec,
    OptionContract,
    RateDynamics,
    _softplus,
    log_price,
    price,
)
from mtgopt.pricer_closed import (
    _PROXY_NODES,
    _PROXY_WEIGHTS,
    PriceResult,
    TerminalLognormalLaw,
    _log_bracket,
    _matched_law,
    _ndtr,
    _proxy_warning,
    bs_call,
    delta_from_kernel,
    delta_ln,
    gamma_from_kernel,
    gamma_ln,
    ln_terminal_params,
    price_from_fit,
    price_ln,
    price_sln,
    regime_warning,
)

REFERENCE_CURVATURES = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 15.0, 20.0, 30.0, 40.0)
REFERENCE_STRIKES = tuple(np.linspace(97.0, 103.0, 13).tolist())


def test_ndtr_is_within_45_eps_of_the_exact_normal_cdf():
    worst = 0.0
    with mpmath.workdps(40):
        for x in np.linspace(-8.0, 8.0, 4001).tolist():
            exact = mpmath.ncdf(x)
            worst = max(worst, float(abs(_ndtr(x) - exact) / exact))
    assert worst <= 45.0 * np.finfo(float).eps


def test_ndtr_limits():
    assert _ndtr(-math.inf) == 0.0
    assert _ndtr(math.inf) == 1.0
    assert math.isnan(_ndtr(math.nan))


def test_kernel_degenerate_at_the_money():
    assert bs_call(100.0, 0.0, 100.0, 1.0) == 0.0


def test_kernel_pinned_atm():
    # 100 (N(0.1) - N(-0.1)) with W = 0.2
    got = bs_call(100.0, 0.2, 100.0, 1.0)
    assert got == pytest.approx(7.965567455405798, rel=1e-12)


def test_kernel_certain_exercise():
    assert bs_call(100.0, 0.3, -5.0, 0.99) == pytest.approx(103.95, rel=1e-15)


def test_put_kernel_negative_strike_worthless():
    assert bs_call(100.0, 0.3, -1.0, 0.99, -1) == 0.0


def test_put_equals_call_at_forward_strike():
    # parity at M1 = K_eff makes put and call coincide
    call = bs_call(100.0, 0.2, 100.0, 1.0)
    put = bs_call(100.0, 0.2, 100.0, 1.0, -1)
    assert put == pytest.approx(call, rel=1e-12)


def test_put_call_parity_randomized():
    rng = np.random.default_rng(61)
    for _ in range(300):
        m1, w, k_eff, df = (
            rng.uniform(1.0, 300.0),
            rng.uniform(0.0, 1.5),
            rng.uniform(-50.0, 300.0),
            rng.uniform(0.5, 1.0),
        )
        lhs = bs_call(m1, w, k_eff, df) - bs_call(m1, w, k_eff, df, -1)
        rhs = df * (m1 - k_eff)
        assert abs(lhs - rhs) <= 1e-12 * (m1 + abs(k_eff))


def test_kernel_discount_scaling():
    base = (110.0, 0.4, 95.0, 1.0)
    lam = 0.7
    scaled = (110.0, 0.4, 95.0, lam)
    assert bs_call(*scaled) == pytest.approx(lam * bs_call(*base), rel=1e-15)


def test_phi_identity_randomized():
    # log(phi(d1)/phi(d2)) = -log(M1/K); the exact-Greeks derivation rests on it
    rng = np.random.default_rng(62)
    for _ in range(300):
        m1 = rng.uniform(1.0, 300.0)
        k = rng.uniform(1.0, 300.0)
        w = rng.uniform(1e-3, 1.5)
        d1 = (math.log(m1 / k) + 0.5 * w * w) / w
        d2 = d1 - w
        # d1^2 - d2^2 factored as (d1-d2)(d1+d2): the squares cancel
        # catastrophically for small w and would only test roundoff
        lhs = -0.5 * (d1 - d2) * (d1 + d2)
        assert abs(lhs + math.log(m1 / k)) <= 1e-12 * (1.0 + abs(math.log(m1 / k)))


def test_ln_terminal_params_pinned_chain():
    # chained two-lognormal matching at defaults C=3, scalar oracle values
    law = ln_terminal_params(default_spec(3.0), DEFAULT_DYNAMICS, 0.25)
    assert law.mu_P == pytest.approx(4.604834458076907, rel=1e-12)
    assert law.sigma_P == pytest.approx(0.051987417744811734, rel=1e-12)


def test_ln_exponents_perfectly_correlated():
    # both exponents are affine in r_T, so cov must equal sigma1 sigma2
    for C in (0.5, 3.0, 30.0):
        p = default_duration(C)
        a1 = p.L * p.C / p.U
        a2 = p.C * (p.L / p.U + 1.0)
        v = (0.02 * math.sqrt(0.25)) ** 2
        assert (a1 * a2 * v) ** 2 == pytest.approx((a1 * a1 * v) * (a2 * a2 * v), rel=1e-12)


def test_ln_terminal_params_vanishing_volatility():
    law = ln_terminal_params(default_spec(3.0), RateDynamics(mu=0.0, sigma=1e-10), 0.25)
    assert math.exp(law.mu_P) == pytest.approx(float(price(default_spec(3.0), 0.0)), rel=1e-6)
    assert law.sigma_P <= 1e-8


def test_ln_forward_mean_consistent_with_sample_mean():
    # matched-law mean vs simulated mean, low-curvature regime
    for C, seed in ((0.5, 211), (3.0, 212), (6.0, 213)):
        spec = default_spec(C)
        law = ln_terminal_params(spec, DEFAULT_DYNAMICS, 0.25)
        m1 = math.exp(law.mu_P + 0.5 * law.sigma_P**2)
        sample = simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, McConfig(n=70000, seed=seed))
        se = float(np.std(sample, ddof=1)) / math.sqrt(sample.size)
        assert abs(m1 - float(np.mean(sample))) <= 3.0 * se


def test_scalar_bracket_matches_the_price_map():
    # with L = 0, U = C = 1, r0 = 0, P0 = 1 and x0 = -b, log P(x) is minus the bracket
    for b in (-800.0, -50.0, -5.0, -1.0, -1e-3, 0.0, 1e-8, 0.7, 5.0, 50.0, 800.0):
        spec = ModelSpec.calibrate(DurationParams(0.0, 1.0, 1.0, -b), MarketState(1.0, 0.0))
        for x in (-100.0, -3.0, -1.0, -0.999, -0.5, -1e-6, 0.0, 1e-12, 0.3, 1.0, 1.0001, 7.0, 100.0):
            want = -float(log_price(spec, x))
            bracket = _log_bracket(spec, x)
            assert abs(bracket - want) <= 1e-15 * abs(want), (b, x)


def _lognormal_call(w: float) -> float:
    # constant duration D: P_T = P0 e^{-D (r_T - r0)} is LogN(log P0, w^2) at mu = 0, so
    # the call at K = P0 = 100 is Black-Scholes with d1 = w and d2 = 0
    c = DEFAULT_CONTRACT
    return math.exp(-c.r_f * c.T) * 100.0 * (math.exp(0.5 * w * w) * ndtr(w) - 0.5)


def test_small_curvature_converges_to_the_lognormal_limit():
    # as C -> 0, D -> L + U/2 = 5.5, so sigma_P = 5.5 sigma sqrt(T) = 0.055
    exact = _lognormal_call(0.055)
    assert exact == pytest.approx(2.2602379191, abs=1e-10)
    for C, tol in ((1e-6, 1e-7), (1e-8, 1e-9), (1e-100, 1e-13)):
        assert abs(price_ln(default_spec(C), DEFAULT_DYNAMICS, DEFAULT_CONTRACT).price - exact) <= tol
    mc = price_mc(default_spec(1e-100), DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig())
    assert abs(mc.price - exact) <= 4.0 * mc.std_error


@pytest.mark.parametrize("x0", [-1e8, -1e13, -1e17])
def test_coupon_far_below_rate_is_the_constant_duration_limit(x0):
    # D -> L + U = 10 when x0 << r0, so sigma_P = 10 sigma sqrt(T) = 0.1
    exact = _lognormal_call(0.1)
    assert exact == pytest.approx(4.2312076392, abs=1e-10)
    spec = ModelSpec.calibrate(DurationParams(1.0, 9.0, 3.0, x0), DEFAULT_MARKET)
    assert abs(price_ln(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT).price - exact) <= 1e-12
    mc = price_mc(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig())
    assert abs(mc.price - exact) <= 4.0 * mc.std_error


def test_price_ln_pinned():
    res = price_ln(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT)
    assert res.price == pytest.approx(2.1149410040009955, rel=1e-12)
    assert res.method == "LN"
    assert res.warning is None


def test_price_ln_is_kernel_on_matched_law():
    # single source of truth: no second formula path; the kernel prices P/P0
    # on (M1/P0, K/P0), and the price is P0 times that
    spec = default_spec(2.0)
    law = ln_terminal_params(spec, DEFAULT_DYNAMICS, 0.25)
    m1 = math.exp(law.mu + 0.5 * law.sigma_P**2)
    want = 100.0 * bs_call(m1, law.sigma_P, 100.0 / 100.0, math.exp(-0.0209 * 0.25))
    assert price_ln(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT).price == want


def test_price_ln_near_mc_at_default_curvature():
    mc = price_mc(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=70000, seed=501))
    ln = price_ln(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT)
    assert abs(ln.price - mc.price) / mc.price < 0.02


def test_price_ln_flags_high_curvature_regime():
    res = price_ln(default_spec(30.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT)
    assert res.warning is not None and "skew" in res.warning


def test_price_ln_deterministic_rate_limit():
    res = price_ln(default_spec(3.0), RateDynamics(mu=0.0, sigma=1e-10), OptionContract(99.0, 0.25, 0.0209))
    assert res.price == pytest.approx(math.exp(-0.0209 * 0.25) * 1.0, rel=1e-6)


def test_price_sln_near_mc_at_default_curvature():
    # fit sample and reference sample are independent draws
    fit_sample = simulate_terminal_prices(
        default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT.T, McConfig(n=70000, seed=601)
    )
    sln = price_sln(central_moments(fit_sample), DEFAULT_CONTRACT)
    mc = price_mc(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=70000, seed=602))
    assert abs(sln.price - mc.price) / mc.price < 0.02
    assert sln.method == "SLN"
    assert sln.diagnostics.orientation in (-1, 1)


def test_price_sln_deterministic_rate_limit():
    dyn = RateDynamics(mu=0.0, sigma=1e-8)
    sample = simulate_terminal_prices(default_spec(3.0), dyn, 0.25, McConfig(n=20000, seed=5))
    moments = central_moments(sample)
    itm = price_sln(moments, OptionContract(99.0, 0.25, 0.0209))
    assert itm.price == pytest.approx(math.exp(-0.0209 * 0.25) * 1.0, abs=1e-5)
    otm = price_sln(moments, OptionContract(101.0, 0.25, 0.0209))
    assert otm.price == pytest.approx(0.0, abs=1e-8)


def test_price_sln_tiny_strike_is_discounted_mean():
    # payoff is the underlier itself; fit matches the mean exactly
    spec = default_spec(3.0)
    c = OptionContract(K=1e-6, T=0.25, r_f=0.0209)
    fit_sample = simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, McConfig(n=70000, seed=603))
    sln = price_sln(central_moments(fit_sample), c)
    ref = simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, McConfig(n=70000, seed=604))
    want = math.exp(-0.0209 * 0.25) * float(np.mean(ref))
    assert abs(sln.price - want) / want < 0.005


@pytest.mark.parametrize(
    "moments,orientation,fallback",
    [
        (SampleMoments(100.18, 4.0, 0.5, 70000), 1, False),
        (SampleMoments(100.18, 4.0, -0.5, 70000), -1, False),
        # fallback fits: the wide one refits its implied moments through the
        # three-moment branch, the narrow one through the fallback again
        (SampleMoments(100.18, 4.0, 0.0, 70000), 1, True),
        (SampleMoments(100.18, 1e-6, 0.0, 70000), 1, True),
    ],
)
def test_price_sln_on_implied_moments_prices_the_fit(moments, orientation, fallback):
    # the exact moments of a fitted law price like the sample moments it came from
    fit = fit_shifted_lognormal(moments)
    assert fit.orientation == orientation and (fit.theta == 0.0) == fallback
    sd = math.sqrt(moments.m2)
    for K in (moments.mean - sd, moments.mean, moments.mean + sd):
        c = OptionContract(K, 0.25, 0.0209)
        want = price_from_fit(fit, c)
        assert price_sln(implied_moments(fit), c).price == pytest.approx(want, rel=1e-9)


def test_pricer_closed_does_not_load_the_sampler():
    src = str(Path(mtgopt.__file__).resolve().parents[1])
    code = "import sys, mtgopt.pricer_closed; print('mtgopt.mc_engine' in sys.modules)"
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, "False\n", "")


def test_sln_strike_monotone_convex():
    # one fixed fit per curvature, kernel swept over strikes
    grid = np.arange(90.0, 111.0)
    for C, seed in ((3.0, 71), (30.0, 72)):
        sample = simulate_terminal_prices(default_spec(C), DEFAULT_DYNAMICS, 0.25, McConfig(n=70000, seed=seed))
        fit = fit_shifted_lognormal(central_moments(sample))
        px = [price_from_fit(fit, OptionContract(k, 0.25, 0.0209)) for k in grid]
        d1 = np.diff(px)
        assert np.all(d1 <= 1e-12)
        assert np.all(np.diff(d1) >= -1e-10)


def test_ln_strike_monotone_convex():
    grid = np.arange(90.0, 111.0)
    px = [
        price_ln(default_spec(3.0), DEFAULT_DYNAMICS, OptionContract(k, 0.25, 0.0209)).price
        for k in grid
    ]
    d1 = np.diff(px)
    assert np.all(d1 <= 1e-12)
    assert np.all(np.diff(d1) >= -1e-10)


def _ln_price_at(p0: float, C: float, c: OptionContract) -> float:
    spec = ModelSpec.calibrate(default_duration(C), MarketState(p0, 0.01))
    return price_ln(spec, DEFAULT_DYNAMICS, c).price


def test_delta_ln_matches_finite_difference_at_defaults():
    # h = 1e-3 P0, recalibrating each bump
    h = 0.1
    fd = (_ln_price_at(100.0 + h, 3.0, DEFAULT_CONTRACT) - _ln_price_at(100.0 - h, 3.0, DEFAULT_CONTRACT)) / (2 * h)
    assert delta_ln(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT) == pytest.approx(fd, rel=1e-5)


def test_gamma_ln_matches_second_difference_at_defaults():
    h = 0.1
    up = _ln_price_at(100.0 + h, 3.0, DEFAULT_CONTRACT)
    mid = _ln_price_at(100.0, 3.0, DEFAULT_CONTRACT)
    dn = _ln_price_at(100.0 - h, 3.0, DEFAULT_CONTRACT)
    fd = (up - 2 * mid + dn) / (h * h)
    assert gamma_ln(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT) == pytest.approx(fd, rel=1e-3)


def test_greeks_ln_without_spread_are_intrinsic():
    # sigma = 1e-300 leaves W = 0: delta is df M1/P0 in the money and 0 out
    # of it, gamma is 0 either way
    dyn = RateDynamics(mu=0.0, sigma=1e-300)
    spec = default_spec(3.0)
    itm, otm = OptionContract(99.0, 0.25, 0.0209), OptionContract(101.0, 0.25, 0.0209)
    law = ln_terminal_params(spec, dyn, 0.25)
    assert law.sigma_P == 0.0
    assert delta_ln(spec, dyn, itm) == itm.df * math.exp(law.mu)
    assert delta_ln(spec, dyn, otm) == 0.0
    assert gamma_ln(spec, dyn, itm) == 0.0
    assert gamma_ln(spec, dyn, otm) == 0.0


def test_greek_bounds():
    spec = default_spec(3.0)
    law = ln_terminal_params(spec, DEFAULT_DYNAMICS, 0.25)
    m1 = math.exp(law.mu_P + 0.5 * law.sigma_P**2)
    df = math.exp(-0.0209 * 0.25)
    d = delta_ln(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT)
    assert 0.0 < d < df * m1 / 100.0
    assert gamma_ln(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT) > 0.0


def test_delta_ln_close_to_mc_delta():
    mc = crn_delta(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=70000, seed=801))
    ln = delta_ln(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT)
    assert abs(ln - mc) / abs(mc) < 0.03


def test_delta_ln_pinned():
    assert delta_ln(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT) == pytest.approx(
        0.5159808504727675, rel=1e-12
    )


def test_gamma_ln_pinned():
    assert gamma_ln(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT) == pytest.approx(
        0.07633673398238376, rel=1e-12
    )


def test_regime_proxy_nodes_are_hermgauss_21_bit_for_bit():
    nodes, weights = np.polynomial.hermite.hermgauss(21)
    assert _PROXY_NODES == tuple(nodes.tolist())
    assert _PROXY_WEIGHTS == tuple((weights / math.sqrt(math.pi)).tolist())


def test_regime_warning_matches_the_numpy_proxy_on_the_reference_grid():
    warned = set()
    for C in REFERENCE_CURVATURES:
        spec = default_spec(C)
        for K in REFERENCE_STRIKES:
            c = OptionContract(K, DEFAULT_CONTRACT.T, DEFAULT_CONTRACT.r_f)
            new, ref, _ = regime_verdicts(spec, DEFAULT_DYNAMICS, c.T)
            assert (price_ln(spec, DEFAULT_DYNAMICS, c).warning is not None) == new
            assert new == ref, (C, K)
            if new:
                warned.add(C)
    assert warned == {10.0, 15.0, 20.0, 30.0, 40.0}


def test_regime_warning_matches_the_numpy_proxy_on_random_sets(record_property):
    # tiny sigma puts some sets within roundoff of the threshold, where the two
    # sums may round to different sides; everywhere else the verdicts agree
    rng = np.random.default_rng(20240)
    sets = band = warns = differ = 0
    for _ in range(5000):
        L, U, C = rng.uniform(0.0, 5.0), rng.uniform(0.5, 20.0), 10.0 ** rng.uniform(-3.0, 1.7)
        x0, r0, mu = rng.uniform(-0.05, 0.15), rng.uniform(0.0, 0.1), rng.uniform(-0.05, 0.05)
        sigma, T = 10.0 ** rng.uniform(-9.0, -1.0), rng.uniform(0.01, 2.0)
        P0 = 10.0 ** rng.uniform(-3.0, 4.0)
        spec = ModelSpec.calibrate(DurationParams(L, U, C, x0), MarketState(P0, r0))
        new, ref, in_band = regime_verdicts(spec, RateDynamics(mu, sigma), T)
        assert new == ref or in_band, (L, U, C, x0, r0, mu, sigma, T, P0)
        sets, band, warns, differ = sets + 1, band + in_band, warns + ref, differ + (new != ref)
    record_property("sets_in_roundoff_band", band)
    print(f"{band} of {sets} sets within 10 eps mean m2 of the threshold ({differ} differ); {warns} warn")
    assert 100 <= warns <= sets - 100


def _ln_at_spot(P0: float, mu: float = 0.0) -> tuple[ModelSpec, RateDynamics, OptionContract]:
    # C = 3 at P0 = K: the law of P/P0 and K/P0 = 1 are the same at every spot
    spec = ModelSpec.calibrate(default_duration(3.0), MarketState(P0, 0.01))
    return spec, RateDynamics(mu, 0.02), OptionContract(P0, 0.25, 0.0209)


@pytest.mark.parametrize("P0", [1e-300, 1.0, 1e308])
def test_ln_price_and_greeks_scale_with_p0_at_extreme_spots(P0):
    ref = _ln_at_spot(100.0)
    at = _ln_at_spot(P0)
    assert price_ln(*at).price / P0 == pytest.approx(price_ln(*ref).price / 100.0, rel=1e-14)
    assert delta_ln(*at) == pytest.approx(delta_ln(*ref), rel=1e-14)
    assert P0 * gamma_ln(*at) == pytest.approx(100.0 * gamma_ln(*ref), rel=1e-14)


@pytest.mark.parametrize("P0, mu", [(5e-324, 0.0), (1e-310, 0.0), (1e-300, 10.0)],
                         ids=["P0=5e-324", "P0=1e-310", "tiny-M1"])
def test_ln_greeks_at_a_subnormal_spot_or_mean_scale_with_p0(P0, mu):
    # M1/P0 and K/P0 do not depend on the spot, so delta is the P0 = 100 delta
    # bit for bit; gamma scales as 1/P0, past double range at a subnormal spot
    at, ref = _ln_at_spot(P0, mu), _ln_at_spot(100.0, mu)
    assert delta_ln(*at) == delta_ln(*ref)
    if P0 < sys.float_info.min:
        with pytest.raises(NonFiniteResultError, match=f"^gamma is inf at P0={P0}$"):
            gamma_ln(*at)
    else:
        assert P0 * gamma_ln(*at) == 100.0 * gamma_ln(*ref)


def _mp_ln_kernel(law, c: OptionContract) -> tuple:
    # price, delta and gamma of a call on LogN(mu_P, sigma_P^2) in 50 digits
    with mpmath.workdps(50):
        P0, w, K = mpmath.mpf(law.P0), mpmath.mpf(law.sigma_P), mpmath.mpf(c.K)
        df = mpmath.exp(-mpmath.mpf(c.r_f) * mpmath.mpf(c.T))
        m1 = P0 * mpmath.exp(mpmath.mpf(law.mu) + w * w / 2)
        d1 = (mpmath.log(m1 / K) + w * w / 2) / w
        price_ = df * (m1 * mpmath.ncdf(d1) - K * mpmath.ncdf(d1 - w))
        return price_, df * m1 / P0 * mpmath.ncdf(d1), df * m1 / P0 * mpmath.npdf(d1) / (w * P0)


def test_ln_kernel_matches_50_digits_on_the_matched_law(record_property):
    # the kernel's own error, on the law ln_terminal_params returns, across
    # the 13 x 12 (K, C) reference grid
    worst = [0.0, 0.0, 0.0]
    for C in REFERENCE_CURVATURES:
        spec = default_spec(C)
        law = ln_terminal_params(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT.T)
        for K in REFERENCE_STRIKES:
            c = OptionContract(K, DEFAULT_CONTRACT.T, DEFAULT_CONTRACT.r_f)
            got = (price_ln(spec, DEFAULT_DYNAMICS, c).price, delta_ln(spec, DEFAULT_DYNAMICS, c),
                   gamma_ln(spec, DEFAULT_DYNAMICS, c))
            for i, (g, want) in enumerate(zip(got, _mp_ln_kernel(law, c))):
                worst[i] = max(worst[i], float(abs(g - want) / want))
    record_property("worst_relative_price_delta_gamma", worst)
    assert max(worst) <= 1e-13, worst


@pytest.mark.parametrize("sigma", [80.0, 1000.0], ids=["moments overflow", "price overflows"])
def test_regime_warning_that_overflows_names_its_parameters(sigma):
    with pytest.raises(NonFiniteResultError) as exc:
        regime_warning(default_spec(3.0), RateDynamics(0.0, sigma), 0.25)
    assert str(exc.value) == (
        f"quadrature moments of P/P0 are not finite at L=1.0, U=9.0, C=3.0, mu=0.0, sigma={sigma}, T=0.25"
    )


# the LN entry points of one contract in the closed_form workload's order and
# in two others, so that each is the first to work out a law and the last
LN_CALL_ORDERS = {
    "price-delta-gamma": ("price", "delta", "gamma"),
    "gamma-delta-price": ("gamma", "delta", "price"),
    "delta-gamma-price": ("delta", "gamma", "price"),
}
LN_CALLS = {"price": price_ln, "delta": delta_ln, "gamma": gamma_ln}


def _ln_calls(order: tuple[str, ...], *at) -> dict:
    return {name: LN_CALLS[name](*at) for name in order}


def _reference_grid_ln(order: tuple[str, ...]) -> tuple[list, dict]:
    doc = json.loads((Path(__file__).resolve().parent / "golden" / "closed_form_ln_hex.json").read_text())
    got = []
    for C in REFERENCE_CURVATURES:
        spec = default_spec(C)
        for K in REFERENCE_STRIKES:
            c = OptionContract(K, DEFAULT_CONTRACT.T, DEFAULT_CONTRACT.r_f)
            out = _ln_calls(order, spec, DEFAULT_DYNAMICS, c)
            res = out["price"]
            assert res.warning in (None, doc["warning"])
            got.append([C, K, res.price.hex(), out["delta"].hex(), out["gamma"].hex(), res.warning is not None])
    return got, doc


def test_ln_outputs_on_the_reference_grid_are_pinned_bit_for_bit():
    # price, delta, gamma and the warning at the 13 x 12 (K, C) points of the
    # benchmark's closed_form workload, as hex, recorded before the LN entry
    # points shared their curve terms
    got, doc = _reference_grid_ln(LN_CALL_ORDERS["price-delta-gamma"])
    assert got == doc["points"]


@pytest.mark.parametrize("order", ["gamma-delta-price", "delta-gamma-price"])
def test_ln_outputs_on_the_reference_grid_are_pinned_bit_for_bit_in_any_call_order(order):
    # the greek called first works out the law that the others read
    got, doc = _reference_grid_ln(LN_CALL_ORDERS[order])
    assert got == doc["points"]


LIMIT_PINS = Path(__file__).resolve().parent / "golden" / "kernel_limits_hex.json"
# (M1, W, K_eff, df) on each limit branch of the kernel: K_eff < 0, K_eff = +-0,
# K_eff = inf, W = 0 on either side of the money and at it, M1/K_eff
# underflowing to 0 and overflowing to inf, the smallest K_eff, a W whose
# gamma overflows at a tiny spot, and one interior point
LIMIT_INPUTS = (
    (100.0, 0.3, -5.0, 0.99), (100.0, 0.3, 0.0, 0.99), (100.0, 0.3, -0.0, 0.99), (100.0, 0.3, math.inf, 0.99),
    (100.0, 0.0, 95.0, 0.99), (100.0, 0.0, 105.0, 0.99), (100.0, 0.0, 100.0, 0.99), (1e-300, 0.3, 1e300, 0.99),
    (1e300, 0.3, 1e-300, 0.99), (1.0, 0.3, 5e-324, 0.99), (1.0, 1e-300, 1.0, 0.99), (1.0203, 0.0123, 0.97, 0.9948),
)
# (C, sigma, P0, K) off the default bundle, and one whose LN mean overflows
LN_LIMIT_POINTS = tuple(
    (C, sigma, P0, K) for C in (1e-6, 3.0, 45.0) for sigma in (1e-4, 0.3)
    for P0, K in ((1e-300, 1e-300), (100.0, 97.0), (1e300, 1e300))
) + ((1e-6, 20.0, 100.0, 97.0),)


def _hex_or_error(f):
    try:
        value = f()
    except NonFiniteResultError as exc:
        return f"NonFiniteResultError: {exc}"
    return value.hex()


def test_kernel_limit_branches_are_pinned_bit_for_bit():
    # recorded while the kernel still took a BsKernelInputs record
    doc = json.loads(LIMIT_PINS.read_text())
    got = {}
    for inp in LIMIT_INPUTS:
        row = {"call": bs_call(*inp).hex(), "put": bs_call(*inp, -1).hex()}
        if not inp[2] < 0.0:
            row["delta"] = delta_from_kernel(*inp).hex()
            for P0 in (1.0, 1e-300):
                row[f"gamma_{P0:g}"] = _hex_or_error(lambda: gamma_from_kernel(*inp, P0))
        got[repr(inp)] = row
    assert got == doc["kernel"]


def _price_hex(f):
    try:
        res = f()
    except NonFiniteResultError as exc:
        return f"NonFiniteResultError: {exc}"
    return [res.price.hex(), res.diagnostics.mu.hex(), res.diagnostics.sigma_P.hex(), res.warning]


def _off_the_default_bundle_ln(order: tuple[str, ...]) -> dict:
    got = {}
    for C, sigma, P0, K in LN_LIMIT_POINTS:
        spec = ModelSpec.calibrate(DurationParams(1.0, 9.0, C, 0.055), MarketState(P0, 0.01))
        at = (spec, RateDynamics(0.0, sigma), OptionContract(K, 0.25, 0.0209))
        out = {name: (_price_hex if name == "price" else _hex_or_error)(lambda: LN_CALLS[name](*at))
               for name in order}
        got[repr((C, sigma, P0, K))] = {name: out[name] for name in ("price", "delta", "gamma")}
    return got


def test_ln_entry_points_off_the_default_bundle_are_pinned_bit_for_bit():
    # price, mu, sigma_P, warning, delta and gamma at tiny and huge C, sigma
    # and spot, recorded while the kernel still took a BsKernelInputs record
    doc = json.loads(LIMIT_PINS.read_text())
    assert _off_the_default_bundle_ln(LN_CALL_ORDERS["price-delta-gamma"]) == doc["ln"]


@pytest.mark.parametrize("order", ["gamma-delta-price", "delta-gamma-price"])
def test_ln_entry_points_off_the_default_bundle_are_pinned_bit_for_bit_in_any_call_order(order):
    # the greek called first works out the law, or raises for the others to raise afresh
    doc = json.loads(LIMIT_PINS.read_text())
    assert _off_the_default_bundle_ln(LN_CALL_ORDERS[order]) == doc["ln"]


def _counting(monkeypatch, name: str, module=pricer_closed) -> list:
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_ln_call_computes_the_rate_law_and_softplus_terms_once(monkeypatch):
    # softplus(+-b) is worked out once, at calibration; an LN call reads the pair
    # off the spec and works out the rate law once
    softplus = _counting(monkeypatch, "_softplus", model)
    spec, c = default_spec(30.0), DEFAULT_CONTRACT
    assert len(softplus) == 2
    laws = _counting(monkeypatch, "terminal_rate_law")
    res = price_ln(spec, DEFAULT_DYNAMICS, c)
    assert res.warning is not None
    assert (len(laws), len(softplus)) == (1, 2)


def test_price_delta_and_gamma_of_one_contract_work_out_one_law(monkeypatch):
    # the closed_form workload's op: delta_ln and gamma_ln read the law that
    # price_ln kept; a value-equal but distinct spec, a distinct dyn or
    # another T is one more law, and a lone greek works out its own
    spec, twin = default_spec(3.0), default_spec(3.0)
    dyn, other_dyn = RateDynamics(0.0, 0.02), RateDynamics(0.0, 0.02)
    assert (twin, other_dyn) == (spec, dyn) and twin is not spec and other_dyn is not dyn
    c, later = DEFAULT_CONTRACT, OptionContract(DEFAULT_CONTRACT.K, 0.5, DEFAULT_CONTRACT.r_f)
    calls = [_counting(monkeypatch, name) for name in ("terminal_rate_law", "_matched_law", "_quadrature")]

    def evaluations() -> tuple[int, ...]:
        return tuple(len(made) for made in calls)

    for n, at in enumerate([(spec, dyn, c), (twin, dyn, c), (twin, other_dyn, c), (twin, other_dyn, later)], 1):
        _ln_calls(LN_CALL_ORDERS["price-delta-gamma"], *at)
        assert evaluations() == (n, n, n), at
    for greek in (delta_ln, gamma_ln):
        for made in calls:
            made.clear()
        greek(default_spec(3.0), dyn, c)
        assert evaluations() == (1, 1, 0), greek.__name__


def _outcome(f) -> tuple[str, str]:
    """What f() returns, or the type and text of what it raises."""
    try:
        return ("value", repr(f()))
    except (NonFiniteResultError, ValidationError) as exc:
        return (type(exc).__name__, str(exc))


def _direct_ln(name: str, spec: ModelSpec, dyn: RateDynamics, T: float, K: float):
    """An LN entry point's result, worked out from a direct _matched_law call."""
    law = model.terminal_rate_law(dyn, T)
    mu, sigma_P, m1 = _matched_law(spec, dyn, T, law)
    P0 = spec.market.P0
    if name == "ln_kernel":
        return m1, sigma_P
    if name == "ln_terminal_params":
        return TerminalLognormalLaw(mu, sigma_P, P0)
    c = OptionContract(K, T, 0.0209)
    if name == "price_ln":
        return PriceResult(P0 * bs_call(m1, sigma_P, K / P0, c.df), "LN", None,
                           TerminalLognormalLaw(mu, sigma_P, P0), _proxy_warning(spec, dyn, T, law))
    if name == "delta_ln":
        return delta_from_kernel(m1, sigma_P, K / P0, c.df)
    return gamma_from_kernel(m1, sigma_P, K / P0, c.df, P0)


def _memo_ln(name: str, spec: ModelSpec, dyn: RateDynamics, T: float, K: float):
    if name in ("ln_kernel", "ln_terminal_params"):
        return getattr(pricer_closed, name)(spec, dyn, T)
    return getattr(pricer_closed, name)(spec, dyn, OptionContract(K, T, 0.0209))


def _memo_pools() -> tuple[list, list, list]:
    # value-equal but distinct specs and dynamics, a subnormal spot at which a
    # gamma at K = P0 overflows, and laws that overflow: the rate law at
    # mu = 1e308 past T = 1, the matched law at L = 1e200, at sigma = 1e150 and
    # at mu = 1e308 with C = 10 (whose log M1 is inf), and its mean at
    # C = 1e-6 with sigma = 20
    specs = [default_spec(3.0), default_spec(3.0), default_spec(30.0), default_spec(10.0), default_spec(1e-6),
             ModelSpec.calibrate(default_duration(3.0), MarketState(1e-310, 0.01)),
             ModelSpec.calibrate(DurationParams(1e200, 9.0, 3.0, 0.055), DEFAULT_MARKET)]
    dyns = [DEFAULT_DYNAMICS, RateDynamics(0.0, 0.02), RateDynamics(0.01, 0.05),
            RateDynamics(0.0, 20.0), RateDynamics(0.0, 1e150), RateDynamics(1e308, 0.02)]
    return specs, dyns, [0.25, 1.0, 10.0]


LN_ENTRY_POINTS = ("price_ln", "delta_ln", "gamma_ln", "ln_kernel", "ln_terminal_params")
MEMO_CALLS = st.lists(
    st.tuples(st.sampled_from(LN_ENTRY_POINTS), st.integers(0, 6), st.integers(0, 5), st.integers(0, 2),
              st.sampled_from([1e-310, 97.0, 100.0, 103.0])),
    min_size=1, max_size=30,
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(MEMO_CALLS)
def test_the_kept_law_is_never_stale(calls):
    # any interleaving of the five LN entry points over (spec, dyn, T) gives
    # what a direct _matched_law call gives, value or error text, and an input
    # that raised raises the same text on its next call
    specs, dyns, expiries = _memo_pools()
    raised = {}
    for name, i, j, k, K in calls:
        at = (specs[i], dyns[j], expiries[k], K)
        got = _outcome(lambda: _memo_ln(name, *at))
        assert got == _outcome(lambda: _direct_ln(name, *at)), (name, i, j, k, K)
        key = (name, i, j, k, K)
        if key in raised:
            assert got == raised[key]
        if got[0] != "value":
            raised[key] = got


def test_threads_pricing_their_own_contracts_get_their_own_laws():
    # each of four threads, more than the cores of a small host, alternates
    # two contracts of its own, so the kept law passes between the threads at
    # any switch; each must read only its own laws
    own = [[(default_spec(C), RateDynamics(mu, 0.02)) for C in pair]
           for pair, mu in (((0.5, 3.0), 0.0), ((10.0, 30.0), 0.01), ((1.0, 6.0), -0.01), ((2.0, 40.0), 0.02))]
    c = DEFAULT_CONTRACT
    want = [[tuple(_outcome(lambda: _direct_ln(name, spec, dyn, c.T, c.K)) for name in LN_ENTRY_POINTS)
             for spec, dyn in pair] for pair in own]

    def run(t: int) -> list:
        wrong = []
        for step in range(1000):
            spec, dyn = own[t][step % 2]
            got = tuple(_outcome(lambda: _memo_ln(name, spec, dyn, c.T, c.K)) for name in LN_ENTRY_POINTS)
            if got != want[t][step % 2]:
                wrong.append(step)
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(own)) as pool:
            wrong = [f.result(timeout=60) for f in [pool.submit(run, t) for t in range(len(own))]]
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [[]] * len(own)


def test_calibrate_stores_the_softplus_pair_bit_for_bit():
    # log q = -softplus(-b) and log(1 - q) = -softplus(b) for b = C (r0 - x0),
    # on the curvatures of the reference grid and on random finite b
    specs = [default_spec(C) for C in REFERENCE_CURVATURES]
    rng = np.random.default_rng(2020)
    signs = np.sign(rng.uniform(-1.0, 1.0, 100))
    bs = np.concatenate([
        rng.uniform(-50.0, 50.0, 200),
        rng.uniform(-800.0, 800.0, 100),
        signs * 10.0 ** rng.uniform(-300.0, 300.0, 100),
    ])
    # with C = 1 and r0 = 0, x0 = -b gives b = C (r0 - x0) exactly
    for b in bs.tolist():
        specs.append(ModelSpec.calibrate(DurationParams(1.0, 9.0, 1.0, -b), MarketState(1.0, 0.0)))
    for spec in specs:
        p = spec.duration
        b = p.C * (spec.market.r0 - p.x0)
        assert (spec.log_q, spec.log_1mq) == (-_softplus(-b), -_softplus(b)), b


def test_ln_greeks_build_no_matched_law_record(monkeypatch):
    records = _counting(monkeypatch, "TerminalLognormalLaw")
    delta_ln(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT)
    gamma_ln(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT)
    assert records == []
    assert price_ln(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT).diagnostics is not None
    assert len(records) == 1
