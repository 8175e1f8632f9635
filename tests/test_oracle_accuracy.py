"""Accuracy against the noise-free quadrature oracle in perfbench/oracle.py.

The oracle is written from the model's equations without importing mtgopt,
so these gates judge the engines against the exact price rather than against
one pinned-seed MC draw. It is loaded by path; perfbench/ is not a package.
"""
import importlib.util
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

from mtgopt.mc_engine import McConfig, delta_mc, price_mc
from mtgopt.model import OptionContract
from mtgopt.pricer_closed import price_ln

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

SEEDS = range(1, 65)
N_DRAWS = 20000


def exact_model(C: float):
    p, m, d, c = default_duration(C), DEFAULT_MARKET, DEFAULT_DYNAMICS, DEFAULT_CONTRACT
    return oracle.Model(p.L, p.U, p.C, p.x0, m.P0, m.r0, d.mu, d.sigma, c.T, c.r_f)


def test_oracle_model_is_the_default_bundle():
    # the oracle's own price map must reproduce the calibrated level
    for C in (0.5, 3.0, 30.0):
        assert exact_model(C).log_k == pytest.approx(default_spec(C).log_k, rel=1e-14)


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
        z_delta.append((delta_mc(spec, DEFAULT_DYNAMICS, c, cfg) - exact_delta) / delta_se)
    assert_standard_normal(np.array(z_price))
    assert_standard_normal(np.array(z_delta))
