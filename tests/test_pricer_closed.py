"""Closed-form pricers: kernel identities, parametric chain, exact Greeks."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from conftest import (
    DEFAULT_CONTRACT,
    DEFAULT_DYNAMICS,
    DEFAULT_MARKET,
    default_duration,
    default_spec,
)
import mtgopt
from mtgopt.distfit import SampleMoments, central_moments, fit_shifted_lognormal
from mtgopt.mc_engine import McConfig, delta_mc, price_mc, simulate_terminal_prices
from mtgopt.model import MarketState, ModelSpec, OptionContract, RateDynamics, price
from mtgopt.pricer_closed import (
    BsKernelInputs,
    bs_call,
    delta_ln,
    gamma_ln,
    ln_terminal_params,
    price_from_fit,
    price_ln,
    price_sln,
)


def test_kernel_degenerate_at_the_money():
    assert bs_call(BsKernelInputs(100.0, 0.0, 100.0, 1.0)) == 0.0


def test_kernel_pinned_atm():
    # 100 (N(0.1) - N(-0.1)) with W = 0.2
    got = bs_call(BsKernelInputs(100.0, 0.2, 100.0, 1.0))
    assert got == pytest.approx(7.965567455405798, rel=1e-12)


def test_kernel_certain_exercise():
    assert bs_call(BsKernelInputs(100.0, 0.3, -5.0, 0.99)) == pytest.approx(103.95, rel=1e-15)


def test_put_kernel_negative_strike_worthless():
    assert bs_call(BsKernelInputs(100.0, 0.3, -1.0, 0.99), -1) == 0.0


def test_put_equals_call_at_forward_strike():
    # parity at M1 = K_eff makes put and call coincide
    call = bs_call(BsKernelInputs(100.0, 0.2, 100.0, 1.0))
    put = bs_call(BsKernelInputs(100.0, 0.2, 100.0, 1.0), -1)
    assert put == pytest.approx(call, rel=1e-12)


def test_put_call_parity_randomized():
    rng = np.random.default_rng(61)
    for _ in range(300):
        inp = BsKernelInputs(
            M1=rng.uniform(1.0, 300.0),
            W=rng.uniform(0.0, 1.5),
            K_eff=rng.uniform(-50.0, 300.0),
            df=rng.uniform(0.5, 1.0),
        )
        lhs = bs_call(inp) - bs_call(inp, -1)
        rhs = inp.df * (inp.M1 - inp.K_eff)
        assert abs(lhs - rhs) <= 1e-12 * (inp.M1 + abs(inp.K_eff))


def test_kernel_discount_scaling():
    base = BsKernelInputs(110.0, 0.4, 95.0, 1.0)
    lam = 0.7
    scaled = BsKernelInputs(110.0, 0.4, 95.0, lam)
    assert bs_call(scaled) == pytest.approx(lam * bs_call(base), rel=1e-15)


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
    assert math.exp(law.mu_P) == pytest.approx(float(price(default_spec(3.0), 0.01)), rel=1e-6)
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


def test_price_ln_pinned():
    res = price_ln(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT)
    assert res.price == pytest.approx(2.1149410040009955, rel=1e-12)
    assert res.method == "LN"
    assert res.warning is None


def test_price_ln_is_kernel_on_matched_law():
    # single source of truth: no second formula path
    spec = default_spec(2.0)
    law = ln_terminal_params(spec, DEFAULT_DYNAMICS, 0.25)
    m1 = math.exp(law.mu_P + 0.5 * law.sigma_P**2)
    want = bs_call(BsKernelInputs(m1, law.sigma_P, 100.0, math.exp(-0.0209 * 0.25)))
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
        assert price_sln(fit.implied_moments(), c).price == pytest.approx(want, rel=1e-9)


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
    # h = 1e-3 P0, recalibrating k each bump
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
    # sigma = 1e-300 leaves W = 0: delta is df M1 / P0 in the money and 0 out
    # of it, gamma is 0 either way
    dyn = RateDynamics(mu=0.0, sigma=1e-300)
    spec = default_spec(3.0)
    itm, otm = OptionContract(99.0, 0.25, 0.0209), OptionContract(101.0, 0.25, 0.0209)
    law = ln_terminal_params(spec, dyn, 0.25)
    assert law.sigma_P == 0.0
    m1 = math.exp(law.mu_P)
    assert delta_ln(spec, dyn, itm) == itm.df * m1 / 100.0
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
    mc = delta_mc(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=70000, seed=801))
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
