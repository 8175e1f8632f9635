"""Accuracy against the noise-free quadrature oracle in perfbench/oracle.py.

The oracle is written from the model's equations without importing mtgopt,
so these gates judge the engines against the exact price rather than against
one pinned-seed MC draw. It is loaded by path; perfbench/ is not a package.
"""
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    DEFAULT_CONTRACT,
    DEFAULT_DYNAMICS,
    DEFAULT_MARKET,
    default_duration,
    default_spec,
)

from hypothesis import given, settings
from hypothesis import strategies as st

from mtgopt.distfit import central_moments
from mtgopt.mc_engine import McConfig, crn_delta, price_mc, simulate_terminal_prices
from mtgopt.model import DurationParams, ModelSpec, OptionContract, RateDynamics, log_price
from mtgopt.pricer_closed import price_ln, price_sln, quadrature_moments

_ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = oracle
_spec.loader.exec_module(oracle)

STRIKES = tuple(97.0 + 0.5 * i for i in range(13))

# max |LN / exact - 1| in percent over the 13 strikes (always at K = 103),
# measured and rounded up at the second significant digit
LN_MAX_REL_ERR_PCT = {
    0.5: 0.12, 1.0: 0.24, 2.0: 0.52, 3.0: 0.85, 4.0: 1.3, 5.0: 1.7,
    6.0: 2.2, 10.0: 4.7, 15.0: 9.8, 20.0: 18.0, 30.0: 50.0, 40.0: 120.0,
}

# the same for SLN fitted to the default-seed, default-n sample (max at K = 97
# or 103); almost all of it is the sampling noise of the fitted moments
SLN_MAX_REL_ERR_PCT = {
    0.5: 1.5, 1.0: 1.5, 2.0: 1.5, 3.0: 1.5, 4.0: 1.6, 5.0: 1.6,
    6.0: 1.6, 10.0: 1.8, 15.0: 2.0, 20.0: 2.3, 30.0: 3.2, 40.0: 7.7,
}

# the default SLN, fitted to quadrature_moments: measured 0.0029 % at C = 0.5,
# 0.019 % at 3, 0.042 % at 6, 0.073 % at 10, 0.10 % at 20, 0.27 % at 30 and
# 1.9 % at 40; what remains is the three-moment law's own error, not noise
EXACT_SLN_MAX_REL_ERR_PCT = {
    0.5: 0.05, 1.0: 0.05, 2.0: 0.05, 3.0: 0.05, 4.0: 0.05, 5.0: 0.05,
    6.0: 0.05, 10.0: 0.2, 15.0: 0.2, 20.0: 0.2, 30.0: 0.5, 40.0: 2.5,
}

SEEDS = range(1, 65)
N_DRAWS = 20000


def exact_model(C: float):
    p, m, d, c = default_duration(C), DEFAULT_MARKET, DEFAULT_DYNAMICS, DEFAULT_CONTRACT
    return oracle.Model(p.L, p.U, p.C, p.x0, m.P0, m.r0, d.mu, d.sigma, c.T, c.r_f)


def test_oracle_model_is_the_default_bundle():
    # the oracle's own price map must be the package's, node by node
    z = np.linspace(-8.0, 8.0, 161)
    for C in (0.5, 3.0, 30.0):
        mdl = exact_model(C)
        want = log_price(default_spec(C), mdl.mu * mdl.T + mdl.rate_std * z)
        np.testing.assert_allclose(mdl.log_price(z), want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("C", sorted(LN_MAX_REL_ERR_PCT))
def test_ln_error_map_against_exact(C):
    spec, mdl, c = default_spec(C), exact_model(C), DEFAULT_CONTRACT
    worst = 0.0
    for K in STRIKES:
        exact, _ = oracle.call(mdl, K, 1)
        ln = price_ln(spec, DEFAULT_DYNAMICS, OptionContract(K, c.T, c.r_f)).price
        worst = max(worst, abs(ln / exact - 1.0) * 100.0)
    assert worst <= LN_MAX_REL_ERR_PCT[C]


def assert_standard_normal(z: np.ndarray) -> None:
    # bounds from the normal law for 64 draws: the mean has SD 1/8 and the
    # sample variance SD about 0.18
    assert abs(z.mean()) <= 0.5, z.mean()
    assert 0.5 <= z.var(ddof=1) <= 1.6, z.var(ddof=1)
    assert np.abs(z).max() <= 4.5, np.abs(z).max()


@pytest.mark.parametrize("C, K", [(0.5, 97.0), (3.0, 100.0), (30.0, 103.0)])
def test_mc_price_and_crn_delta_across_seeds(C, K):
    # a bias moves the mean of z, a wrong standard error its variance
    spec, mdl = default_spec(C), exact_model(C)
    c = OptionContract(K, DEFAULT_CONTRACT.T, DEFAULT_CONTRACT.r_f)
    exact_price, _ = oracle.call(mdl, K, N_DRAWS)
    bump = McConfig().bump
    exact_delta, delta_se = oracle.crn_delta(mdl, K, bump, N_DRAWS)
    z_price, z_delta = [], []
    for seed in SEEDS:
        cfg = McConfig(n=N_DRAWS, seed=seed)
        res = price_mc(spec, DEFAULT_DYNAMICS, c, cfg)
        z_price.append((res.price - exact_price) / res.std_error)
        z_delta.append((crn_delta(spec, DEFAULT_DYNAMICS, c, cfg) - exact_delta) / delta_se)
    assert_standard_normal(np.array(z_price))
    assert_standard_normal(np.array(z_delta))


@pytest.mark.parametrize("C", sorted(SLN_MAX_REL_ERR_PCT))
def test_sln_error_map_against_exact(C):
    spec, mdl, c = default_spec(C), exact_model(C), DEFAULT_CONTRACT
    moments = central_moments(simulate_terminal_prices(spec, DEFAULT_DYNAMICS, c.T, McConfig()))
    worst = 0.0
    for K in STRIKES:
        exact, _ = oracle.call(mdl, K, 1)
        sln = price_sln(moments, OptionContract(K, c.T, c.r_f)).price
        worst = max(worst, abs(sln / exact - 1.0) * 100.0)
    assert worst <= SLN_MAX_REL_ERR_PCT[C]


@pytest.mark.parametrize("C", sorted(EXACT_SLN_MAX_REL_ERR_PCT))
def test_default_sln_error_map_against_exact(C):
    spec, mdl, c = default_spec(C), exact_model(C), DEFAULT_CONTRACT
    moments = quadrature_moments(spec, DEFAULT_DYNAMICS, c.T)
    assert moments.mean * DEFAULT_MARKET.P0 == pytest.approx(oracle.mean_price(mdl), rel=1e-14)
    worst = 0.0
    for K in STRIKES:
        exact, _ = oracle.call(mdl, K, 1)
        sln = price_sln(moments, OptionContract(K, c.T, c.r_f), DEFAULT_MARKET.P0).price
        worst = max(worst, abs(sln / exact - 1.0) * 100.0)
    assert worst <= EXACT_SLN_MAX_REL_ERR_PCT[C]


@pytest.mark.parametrize("C, K", [(0.5, 97.0), (3.0, 100.0), (30.0, 103.0)])
def test_sln_unbiased_across_seeds(C, K):
    # the mean SLN error over 64 seeds lies within 4 of its standard errors of 0
    spec, c = default_spec(C), OptionContract(K, DEFAULT_CONTRACT.T, DEFAULT_CONTRACT.r_f)
    exact, _ = oracle.call(exact_model(C), K, 1)
    err = []
    for seed in SEEDS:
        sample = simulate_terminal_prices(spec, DEFAULT_DYNAMICS, c.T, McConfig(n=N_DRAWS, seed=seed))
        err.append(price_sln(central_moments(sample), c).price - exact)
    err = np.array(err)
    assert abs(err.mean()) <= 4.0 * err.std(ddof=1) / math.sqrt(err.size)


properties = settings(derandomize=True, max_examples=60, deadline=None, database=None)
models = st.builds(
    lambda L, U, log_c, sigma: (
        ModelSpec.calibrate(DurationParams(L, U, 10.0**log_c, 0.055), DEFAULT_MARKET),
        RateDynamics(0.0, sigma),
    ),
    st.floats(0.0, 5.0),
    st.floats(0.5, 20.0),
    st.floats(-6.0, math.log10(50.0)),
    st.floats(1e-3, 0.1),
)


def _ln(spec, dyn, K):
    res = price_ln(spec, dyn, OptionContract(K, DEFAULT_CONTRACT.T, DEFAULT_CONTRACT.r_f))
    law = res.diagnostics
    return res.price, math.exp(law.mu_P + 0.5 * law.sigma_P**2)


PROPERTY_MC = McConfig(n=2000, seed=7)


def _mc(spec, dyn, K):
    c = OptionContract(K, DEFAULT_CONTRACT.T, DEFAULT_CONTRACT.r_f)
    mean = float(np.mean(simulate_terminal_prices(spec, dyn, c.T, PROPERTY_MC)))
    return price_mc(spec, dyn, c, PROPERTY_MC).price, mean


@pytest.mark.parametrize("engine", [_ln, _mc])
@properties
@given(models, st.floats(80.0, 120.0))
def test_price_is_a_finite_bounded_convex_call(engine, model, K):
    # finite, in [0, df E[P]] up to roundoff, non-increasing and convex in K
    spec, dyn = model
    df = DEFAULT_CONTRACT.df
    (lo, _), (mid, mean), (hi, _) = (engine(spec, dyn, k) for k in (K - 1.0, K, K + 1.0))
    slack = 1e-12 * max(lo, mid, hi)
    assert all(math.isfinite(v) for v in (lo, mid, hi, mean))
    assert 0.0 <= mid <= df * mean * (1.0 + 1e-12)
    assert lo >= mid - slack and mid >= hi - slack
    assert lo - 2.0 * mid + hi >= -slack
