"""Model layer: duration curve, spot-anchored log-space price on rate moves, rate law."""
import math

import mpmath
import numpy as np
import pytest

from conftest import DEFAULT_MARKET, default_duration, default_spec, duration
from mtgopt.errors import ValidationError
from mtgopt.mc_engine import McConfig, simulate_terminal_rates
from mtgopt.model import (
    MIN_CURVATURE,
    DurationParams,
    MarketState,
    ModelSpec,
    OptionContract,
    RateDynamics,
    _expit,
    _softplus,
    log_price,
    log_shape,
    price,
    terminal_rate_law,
)


def test_duration_midpoint():
    # logistic midpoint at r = x0 is L + U/2
    assert duration(default_duration(3.0), 0.055) == pytest.approx(5.5, abs=1e-15)


def test_duration_lower_asymptote():
    assert duration(default_duration(3.0), 0.055 - 100.0) == pytest.approx(1.0, abs=1e-9)


def test_duration_pinned_value():
    # independent scalar evaluation: 1 + 9/(1+e^{-3(0.01-0.055)})
    assert duration(default_duration(3.0), 0.01) == pytest.approx(
        5.196710481103892, rel=1e-12
    )


def test_duration_asymptotes_at_50_over_C():
    for C in (0.5, 3.0, 30.0):
        p = default_duration(C)
        assert duration(p, p.x0 - 50.0 / C) == pytest.approx(p.L, abs=1e-9)
        assert duration(p, p.x0 + 50.0 / C) == pytest.approx(p.L + p.U, abs=1e-9)


def test_duration_strictly_increasing():
    p = default_duration(3.0)
    grid = np.linspace(-0.05, 0.15, 401)
    vals = duration(p, grid)
    assert np.all(np.diff(vals) > 0)
    assert np.all(vals > p.L) and np.all(vals < p.L + p.U)


def test_calibrate_level_pinned_c3():
    # oracle: P(0) = k (1+e^{-C x0})^{-U/C} with k = 100 e^{0.01} (1+e^{3(0.01-0.055)})^{9/3}
    k = 664.437567149752
    want = k * (1.0 + math.exp(-3.0 * 0.055)) ** (-9.0 / 3.0)
    assert price(default_spec(3.0), 0.0 - DEFAULT_MARKET.r0) == pytest.approx(want, rel=1e-9)


def test_calibrate_level_pinned_c_half():
    k = 21648754.340908803
    want = k * (1.0 + math.exp(-0.5 * 0.055)) ** (-9.0 / 0.5)
    assert price(default_spec(0.5), 0.0 - DEFAULT_MARKET.r0) == pytest.approx(want, rel=1e-9)


def test_expit_is_scipy_expit_bit_for_bit():
    from scipy.special import expit

    rng = np.random.default_rng(0)
    mag = 10.0 ** rng.uniform(-320.0, 2.85, 100000)
    edges = [708.0, -708.0, 709.7, -709.7, -710.0, 800.0, -800.0, 5e-324, -5e-324, 0.0, -0.0]
    b = np.concatenate([rng.normal(0.0, 1e-3, 100000), mag, -mag, rng.uniform(-745.0, 745.0, 100000), edges])
    got = np.array([_expit(v) for v in b.tolist()])
    assert np.array_equal(got.view(np.int64), expit(b).view(np.int64))


def test_calibrate_level_degenerate_duration():
    # L=0 with vanishing U: every factor tends to 1, so k -> P0
    k = 100.0
    spec = ModelSpec.calibrate(DurationParams(L=0.0, U=1e-12, C=2.0, x0=0.055), DEFAULT_MARKET)
    want = k * (1.0 + math.exp(-2.0 * 0.055)) ** (-1e-12 / 2.0)
    assert price(spec, 0.0 - DEFAULT_MARKET.r0) == pytest.approx(want, rel=1e-9)


def _mp_log_price(p: DurationParams, m: MarketState, d: float) -> mpmath.mpf:
    # 50 digits at r = r0 + d: log P0 - L d - (U/C) log((1 + e^{C (r - x0)}) / (1 + e^{C (r0 - x0)}))
    with mpmath.workdps(50):
        L, U, C, x0, P0, r0, d = (mpmath.mpf(v) for v in (p.L, p.U, p.C, p.x0, m.P0, m.r0, d))
        r = r0 + d
        ratio = (1 + mpmath.exp(C * (r - x0))) / (1 + mpmath.exp(C * (r0 - x0)))
        return mpmath.log(P0) - L * (r - r0) - U / C * mpmath.log(ratio)


@pytest.mark.parametrize(
    "C, x0, sigma",
    [(C, 0.055, 0.02) for C in (1e-12, 1e-8, 1e-3, 0.5, 3.0, 40.0)]
    + [(3.0, -1e8, 0.02)]
    + [(40.0, x0, 2.0) for x0 in (0.055, 30.0, -30.0)],
)
def test_price_map_matches_50_digit_reference(C, x0, sigma):
    # 300 default draws; relative price error is the absolute log-price error
    p = DurationParams(L=1.0, U=9.0, C=C, x0=x0)
    spec = ModelSpec.calibrate(p, DEFAULT_MARKET)
    moves = simulate_terminal_rates(RateDynamics(0.0, sigma), 0.25, McConfig(n=300))
    got = log_price(spec, moves)
    with mpmath.workdps(50):
        worst = max(abs(mpmath.mpf(g) - _mp_log_price(p, DEFAULT_MARKET, d)) for g, d in zip(got, moves))
    assert worst <= 1e-14


def test_curvature_floor():
    assert DurationParams(L=1.0, U=9.0, C=MIN_CURVATURE, x0=0.055).C == 1e-100
    for C in (1e-101, 1e-300):
        with pytest.raises(ValidationError, match="curvature C must be >= 1e-100"):
            DurationParams(L=1.0, U=9.0, C=C, x0=0.055)


def test_price_reproduces_spot():
    for C in (0.5, 3.0, 30.0, 40.0):
        spec = default_spec(C)
        assert price(spec, 0.0) == pytest.approx(100.0, rel=1e-12)


def test_price_pinned_c3():
    assert price(default_spec(3.0), 0.02 - DEFAULT_MARKET.r0) == pytest.approx(94.90409926076111, rel=1e-12)


def test_price_strictly_decreasing():
    spec = default_spec(3.0)
    grid = np.linspace(-0.05, 0.15, 401)
    assert np.all(np.diff(price(spec, grid)) < 0)


def test_price_vectorized_matches_scalar():
    spec = default_spec(3.0)
    grid = np.array([0.0, 0.01, 0.055, 0.1])
    assert np.allclose(price(spec, grid), [float(price(spec, r)) for r in grid], rtol=0)


def test_ode_consistency_defaults():
    # dP/dr = -D(r) P(r): central difference, h=1e-6, across the coupon region
    h = 1e-6
    for C in (0.5, 3.0, 30.0):
        spec = default_spec(C)
        p = spec.duration
        for r in np.linspace(p.x0 - 0.05, p.x0 + 0.05, 21):
            d = r - spec.market.r0
            fd = (price(spec, d + h) - price(spec, d - h)) / (2 * h)
            rhs = -duration(p, r) * price(spec, d)
            assert fd == pytest.approx(rhs, rel=1e-6)


def test_calibration_identity_randomized():
    rng = np.random.default_rng(20260816)
    for _ in range(200):
        p = DurationParams(
            L=rng.uniform(0.0, 3.0),
            U=rng.uniform(1.0, 12.0),
            C=rng.uniform(0.1, 50.0),
            x0=rng.uniform(0.01, 0.10),
        )
        m = MarketState(P0=rng.uniform(80.0, 120.0), r0=rng.uniform(0.0, 0.08))
        spec = ModelSpec.calibrate(p, m)
        assert price(spec, 0.0) == pytest.approx(m.P0, rel=1e-12)


def test_ode_consistency_randomized():
    rng = np.random.default_rng(901)
    h = 1e-6
    for _ in range(50):
        p = DurationParams(
            L=rng.uniform(0.0, 3.0),
            U=rng.uniform(1.0, 12.0),
            C=rng.uniform(0.1, 50.0),
            x0=rng.uniform(0.01, 0.10),
        )
        m = MarketState(P0=rng.uniform(80.0, 120.0), r0=rng.uniform(0.0, 0.08))
        spec = ModelSpec.calibrate(p, m)
        for r in np.linspace(p.x0 - 0.05, p.x0 + 0.05, 7):
            d = r - m.r0
            fd = (price(spec, d + h) - price(spec, d - h)) / (2 * h)
            rhs = -duration(p, r) * price(spec, d)
            assert fd == pytest.approx(rhs, rel=1e-6)


def test_log_linear_limit_small_curvature():
    # as C -> 0 the duration is constant, so log price is affine in r
    spec = default_spec(1e-4)
    grid = np.linspace(0.0, 0.1, 11)
    lp = log_price(spec, grid)
    second = lp[:-2] - 2 * lp[1:-1] + lp[2:]
    assert np.max(np.abs(second)) < 1e-6


def test_terminal_rate_law_defaults():
    law = terminal_rate_law(RateDynamics(mu=0.0, sigma=0.02), 0.25)
    assert law.mean == pytest.approx(0.0, abs=0)
    assert law.std == pytest.approx(0.01, rel=1e-15)


def test_terminal_rate_law_drift_and_vol():
    assert terminal_rate_law(RateDynamics(mu=0.04, sigma=0.02), 0.25).mean == pytest.approx(0.01)
    assert terminal_rate_law(RateDynamics(mu=0.0, sigma=0.04), 0.25).std == pytest.approx(0.02)


def test_terminal_rate_law_rejects_nonpositive_expiry():
    with pytest.raises(ValidationError):
        terminal_rate_law(RateDynamics(mu=0.0, sigma=0.02), 0.0)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: DurationParams(L=-0.1, U=9.0, C=3.0, x0=0.055),
        lambda: DurationParams(L=1.0, U=0.0, C=3.0, x0=0.055),
        lambda: DurationParams(L=1.0, U=9.0, C=0.0, x0=0.055),
        lambda: MarketState(P0=0.0, r0=0.01),
        lambda: RateDynamics(mu=0.0, sigma=0.0),
        lambda: OptionContract(K=0.0, T=0.25, r_f=0.02),
        lambda: OptionContract(K=100.0, T=0.0, r_f=0.02),
    ],
)
def test_invariant_violations_rejected(bad):
    with pytest.raises(ValidationError):
        bad()


def _reference_log_shape(spec, d):
    # the allocating expression form of model.log_shape, one new array per step
    p, m = spec.duration, spec.market
    x = p.C * np.asarray(d, dtype=float)
    far = np.abs(x) > 1.0
    step = np.log1p(spec.q * np.expm1(np.minimum(np.maximum(x, -1.0), 1.0)))
    if np.count_nonzero(far):
        b = p.C * (m.r0 - p.x0)
        far_step = np.logaddexp(-_softplus(b), x - _softplus(-b), out=None, where=far)
        step = np.where(far, far_step, step)
    return (p.L / p.C) * x, (p.U / p.C) * step


def _kernel_inputs():
    law = terminal_rate_law(RateDynamics(0.0, 0.02), 0.25)
    nodes = law.mean + math.sqrt(2.0) * law.std * np.polynomial.hermite.hermgauss(21)[0]
    sample = simulate_terminal_rates(RateDynamics(0.0, 0.02), 0.25, McConfig(n=70000, seed=3))
    return {
        "n70000": sample,
        "nodes21": nodes,
        "wide": np.linspace(-4.0, 4.0, 2001),  # |x| > 1 at every curvature
        "0-d": np.array(0.037),
    }


@pytest.mark.parametrize("C", [0.5, 3.0, 30.0, 40.0])
@pytest.mark.parametrize("name", ["n70000", "nodes21", "wide", "0-d"])
def test_in_place_kernels_equal_the_allocating_ones_bit_for_bit(C, name):
    spec = default_spec(C)
    r = _kernel_inputs()[name]
    r.flags.writeable = False
    before = r.tobytes()
    want_A, want_B = _reference_log_shape(spec, r)
    want_price = np.exp(math.log(spec.market.P0) - want_A - want_B)
    for got_A, got_B in (log_shape(spec, r), log_shape(spec, r, (np.empty_like(r), np.empty_like(r)))):
        assert (np.asarray(got_A).tobytes(), np.asarray(got_B).tobytes()) == (want_A.tobytes(), want_B.tobytes())
    work = (np.empty_like(r), np.empty_like(r))
    got = price(spec, r, work)
    assert got is work[0]
    assert got.tobytes() == np.asarray(price(spec, r)).tobytes() == want_price.tobytes()
    # the rate moves themselves may serve as the first work array
    own = r.copy()
    assert price(spec, own, (own, np.empty_like(r))).tobytes() == want_price.tobytes()
    assert r.tobytes() == before


def test_far_elements_leave_the_bits_of_the_near_ones_as_on_the_all_near_path():
    # a sample with no |x| > 1 skips the clip and far passes; the same near
    # elements among far ones go through them and must come out the same
    spec = default_spec(3.0)
    r = _kernel_inputs()["n70000"]
    assert np.abs(3.0 * r).max() <= 1.0
    near_A, near_B = log_shape(spec, r)
    mixed = r.copy()
    far = np.arange(0, r.size, 997)
    mixed[far] = np.linspace(-2.0, 2.0, far.size)  # |x| up to 6
    A, B = log_shape(spec, mixed)
    kept = np.ones(r.size, dtype=bool)
    kept[far] = False
    assert (A[kept].tobytes(), B[kept].tobytes()) == (near_A[kept].tobytes(), near_B[kept].tobytes())
    want_A, want_B = _reference_log_shape(spec, mixed)
    assert (A.tobytes(), B.tobytes()) == (want_A.tobytes(), want_B.tobytes())
    # |x| = 1 exactly is near on both paths, and an empty d has nothing to map
    edge = np.array([-2.0, -1e-3, 0.0, 2.0])
    got, want = log_shape(default_spec(0.5), edge), _reference_log_shape(default_spec(0.5), edge)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert [a.size for a in log_shape(spec, np.empty(0))] == [0, 0]


def test_price_works_in_double_precision_for_any_input_type():
    spec = default_spec(3.0)
    grid = np.linspace(-0.05, 0.15, 41).astype(np.float32)
    want = price(spec, grid.astype(float))
    assert price(spec, grid).tobytes() == price(spec, grid.tolist()).tobytes() == want.tobytes()


def test_price_of_a_float_is_a_float():
    A, B = _reference_log_shape(default_spec(40.0), 1.0)
    got = price(default_spec(40.0), 1.0)
    assert isinstance(got, np.float64)
    assert got == np.exp(math.log(100.0) - A - B)
