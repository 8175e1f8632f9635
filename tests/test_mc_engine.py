"""Monte Carlo engine: determinism, golden streams, estimator contracts."""
import math

import numpy as np
import pytest

from conftest import (
    DEFAULT_CONTRACT,
    DEFAULT_DYNAMICS,
    DEFAULT_MARKET,
    default_spec,
)
from mtgopt.errors import ValidationError
from mtgopt.harness import BaseParams, materialize
from mtgopt.mc_engine import (
    DEFAULT_SEED,
    SHARD_SIZE,
    McConfig,
    delta_mc,
    mix64,
    price_mc,
    simulate_terminal_prices,
    simulate_terminal_rates,
)
from mtgopt.model import MarketState, ModelSpec, OptionContract, RateDynamics, price

# golden stream frozen at first implementation; any change to the generator,
# uniform mapping, or normal transform is a breaking change and must fail here
GOLDEN_RATES_SEED_12345 = [
    0.013755659303684784,
    0.01752975220589774,
    0.017941167416429905,
    3.8831329420950175e-05,
    9.409627019972555e-05,
]
GOLDEN_PRICES_C3_SEED_12345 = [
    98.06256684173222,
    96.14424995423188,
    95.93685951211266,
    105.27777875066246,
    105.24793556111437,
]
GOLDEN_PRICE_MC_C3 = 2.111313513907059
GOLDEN_SE_MC_C3 = 0.011783406227310726


def test_rates_golden_vector():
    got = simulate_terminal_rates(
        DEFAULT_MARKET, DEFAULT_DYNAMICS, 0.25, McConfig(n=5, seed=12345)
    )
    assert got.tolist() == GOLDEN_RATES_SEED_12345


def test_prices_golden_vector():
    got = simulate_terminal_prices(
        default_spec(3.0), DEFAULT_DYNAMICS, 0.25, McConfig(n=5, seed=12345)
    )
    assert got.tolist() == GOLDEN_PRICES_C3_SEED_12345


def test_price_mc_golden():
    res = price_mc(
        default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=70000, seed=12345)
    )
    assert res.price == GOLDEN_PRICE_MC_C3
    assert res.std_error == GOLDEN_SE_MC_C3


def test_same_seed_same_vector():
    cfg = McConfig(n=1000, seed=99)
    a = simulate_terminal_rates(DEFAULT_MARKET, DEFAULT_DYNAMICS, 0.25, cfg)
    b = simulate_terminal_rates(DEFAULT_MARKET, DEFAULT_DYNAMICS, 0.25, cfg)
    assert np.array_equal(a, b)


def test_worker_count_does_not_change_results():
    cfg = McConfig(n=3 * SHARD_SIZE + 17, seed=4242)
    base = price_mc(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT, cfg, workers=1)
    for workers in (2, 4):
        got = price_mc(
            default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT, cfg, workers=workers
        )
        assert got == base


def test_sample_prefix_stable_in_n():
    # growing n extends the sample without changing earlier draws
    a = simulate_terminal_rates(
        DEFAULT_MARKET, DEFAULT_DYNAMICS, 0.25, McConfig(n=SHARD_SIZE, seed=7)
    )
    b = simulate_terminal_rates(
        DEFAULT_MARKET, DEFAULT_DYNAMICS, 0.25, McConfig(n=SHARD_SIZE + 3, seed=7)
    )
    assert np.array_equal(a, b[:SHARD_SIZE])


def test_rate_sample_mean_sanity():
    cfg = McConfig(n=70000, seed=2024)
    rates = simulate_terminal_rates(DEFAULT_MARKET, DEFAULT_DYNAMICS, 0.25, cfg)
    se = 0.02 * math.sqrt(0.25) / math.sqrt(cfg.n)
    assert abs(float(np.mean(rates)) - 0.01) < 4 * se


def test_vanishing_volatility_pins_rates():
    dyn = RateDynamics(mu=0.04, sigma=1e-300)
    rates = simulate_terminal_rates(DEFAULT_MARKET, dyn, 0.25, McConfig(n=100, seed=1))
    assert np.allclose(rates, 0.02, rtol=0, atol=1e-12)


def test_monotone_rate_price_pairing():
    spec = default_spec(3.0)
    cfg = McConfig(n=1000, seed=5)
    rates = simulate_terminal_rates(DEFAULT_MARKET, DEFAULT_DYNAMICS, 0.25, cfg)
    prices = simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, cfg)
    order = np.argsort(rates)[::-1]  # rates descending
    assert np.all(np.diff(prices[order]) > 0)  # prices ascending


def test_price_mc_zero_strike_is_discounted_mean():
    spec = default_spec(3.0)
    cfg = McConfig(n=5000, seed=11)
    c = OptionContract(K=1e-300, T=0.25, r_f=0.0209)
    prices = simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, cfg)
    want = math.exp(-0.0209 * 0.25) * float(np.mean(prices - 1e-300))
    assert price_mc(spec, DEFAULT_DYNAMICS, c, cfg).price == pytest.approx(want, rel=1e-15)


def test_price_mc_unreachable_strike_is_zero():
    c = OptionContract(K=1e6, T=0.25, r_f=0.0209)
    res = price_mc(default_spec(3.0), DEFAULT_DYNAMICS, c, McConfig(n=5000, seed=11))
    assert res.price == 0.0
    assert res.std_error == 0.0


def test_convergence_against_own_error_bars():
    # quadrupling n moves the estimate by less than 4 small-n standard errors
    for C in (0.5, 3.0, 30.0):
        spec = default_spec(C)
        small = price_mc(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=100_000, seed=31))
        big = price_mc(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=400_000, seed=32))
        assert abs(big.price - small.price) <= 4.0 * small.std_error


def test_delta_deterministic_payoff_limit():
    # sigma ~ 0, deep ITM: price is linear in P0 through k, so delta = df P*/P0
    dyn = RateDynamics(mu=0.0, sigma=1e-300)
    spec = default_spec(3.0)
    c = OptionContract(K=50.0, T=0.25, r_f=0.0209)
    want = math.exp(-0.0209 * 0.25) * float(price(spec, 0.01)) / 100.0
    got = delta_mc(spec, dyn, c, McConfig(n=100, seed=3))
    assert got == pytest.approx(want, rel=1e-9)


def bumped_spec(spec: ModelSpec, dp0: float) -> ModelSpec:
    m = spec.market
    return ModelSpec.calibrate(spec.duration, MarketState(m.P0 + dp0, m.r0))


def mc_price(spec: ModelSpec, cfg: McConfig) -> float:
    return price_mc(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, cfg).price


def test_delta_crn_beats_independent_sampling():
    # with common random numbers the FD estimator variance collapses; the
    # independent estimator prices its bumped leg on a second sample
    spec = default_spec(3.0)
    h = McConfig().bump
    up = bumped_spec(spec, h)
    crn, indep = [], []
    for seed in range(50):
        cfg = McConfig(n=2000, seed=seed)
        crn.append(delta_mc(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, cfg))
        up_cfg = McConfig(n=2000, seed=mix64(seed, 1))
        indep.append((mc_price(up, up_cfg) - mc_price(spec, cfg)) / h)
    assert np.var(crn) < np.var(indep)


def test_delta_central_close_to_forward():
    spec = default_spec(3.0)
    cfg = McConfig(n=20000, seed=8)
    h = cfg.bump
    fwd = delta_mc(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, cfg)
    ctr = (mc_price(bumped_spec(spec, h), cfg) - mc_price(bumped_spec(spec, -h), cfg)) / (2.0 * h)
    assert ctr == pytest.approx(fwd, rel=1e-2)


@pytest.mark.parametrize("C", [0.5, 3.0, 30.0])
def test_delta_smallest_accepted_bump_matches_default(C):
    # 1e-7 is just above the roundoff floor at P0 = 100; at n = 2000 no path
    # crosses the strike between the two bumps (at n = 70000 one does, which
    # moves the delta by about 1.1e-5)
    spec = default_spec(C)
    small = delta_mc(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=2000, bump=1e-7))
    default = delta_mc(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=2000))
    assert abs(small - default) < 1e-6


def test_mc_config_defaults_are_the_bundle_defaults():
    assert McConfig().seed == DEFAULT_SEED == 38590
    assert materialize(BaseParams(C=3.0))[3] == McConfig()


def test_mc_config_validation():
    with pytest.raises(ValidationError):
        McConfig(n=0, seed=1)
    with pytest.raises(ValidationError):
        McConfig(n=100, seed=1, bump=0.0)


def test_mix64_is_deterministic_and_spread():
    assert mix64(1, 2, 3) == 17106668304135283436
    assert mix64(0) != mix64(1)
    assert mix64(1, 2) != mix64(2, 1)  # order matters
