"""Moment statistics, the skew cubic, and the shifted-lognormal fit."""
import math
import sys

import mpmath
import numpy as np
import pytest

from conftest import (
    DEFAULT_DYNAMICS,
    default_spec,
    implied_moments,
    lognormal_second_moment,
    moment_bits,
    reference_central_moments,
    solve_eta,
)
from mtgopt.distfit import (
    LognormalParams,
    SampleMoments,
    _solve_excess,
    central_moments,
    fit_shifted_lognormal,
    lognormal_mean,
    skewness,
)
from mtgopt.errors import DegenerateSampleError, ValidationError
from mtgopt.mc_engine import McConfig, simulate_terminal_prices


def sln_moments(theta, orientation, mu_X, sigma_X, n=1000):
    # analytic mean/m2/m3 of theta + orientation*LogN(mu_X, sigma_X^2)
    eta = math.exp(sigma_X * sigma_X)
    ez = math.exp(mu_X + 0.5 * sigma_X * sigma_X)
    m2 = ez * ez * (eta - 1.0)
    m3 = orientation * ez**3 * (eta - 1.0) ** 2 * (eta + 2.0)
    return SampleMoments(theta + orientation * ez, m2, m3, n)


@pytest.mark.parametrize("C", [0.5, 3.0, 40.0])
def test_central_moments_in_buffers_equal_the_allocating_formula(C):
    spec = default_spec(C)
    sample = simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, McConfig(n=70000, seed=17))
    sample.flags.writeable = False
    mean = float(np.mean(sample))
    d = sample - mean
    want = (mean, float(np.mean(d * d)), float(np.mean(d * d * d)))
    for out in (None, (np.empty(70000), np.empty(70000))):
        m = central_moments(sample, out)
        assert (m.mean.hex(), m.m2.hex(), m.m3.hex()) == tuple(v.hex() for v in want)


def _bit_samples() -> list[list[float]]:
    nan, inf = math.nan, math.inf
    rng = np.random.default_rng(20240601)
    samples = [[v] * 5 for v in (0.0, 1e308, 5e-324, inf, -inf)]
    samples += [[nan, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, nan], [1.0, nan, 3.0, 4.0], [1.0, nan, 1.0]]
    samples += [[1.0, 2.0, 1.0], [1e308, -1e308, 1e308], [5e-324, 0.0, 5e-324], [inf, 0.0, inf]]
    samples.append([2.0] * 9 + [3.0, 2.0])
    for n in (3, 4, 17, 1000, 70001):
        samples.append(rng.standard_normal(n).tolist())
        samples.append((100.0 + rng.lognormal(0.0, 0.5, n)).tolist())
    return samples


def _moments_or_error(fn, a, out=None):
    with np.errstate(all="ignore"):
        try:
            return moment_bits(fn(a, out))
        except ValidationError as exc:
            return str(exc)


@pytest.mark.parametrize("sample", _bit_samples(), ids=lambda s: f"n{len(s)}:{s[0]!r}:{s[-1]!r}")
def test_central_moments_equal_the_reference_bit_for_bit(sample):
    # np.add.reduce / n for np.mean, and the constancy pass only where the ends
    # agree, change no bit and no verdict; the powers may overwrite the sample
    a = np.array(sample)
    want = _moments_or_error(reference_central_moments, a.copy())
    assert _moments_or_error(central_moments, a.copy()) == want
    assert _moments_or_error(central_moments, a.copy(), (np.empty(a.size), np.empty(a.size))) == want
    own = a.copy()
    assert _moments_or_error(central_moments, own, (np.empty(a.size), own)) == want


def test_central_moments_constant_sample():
    m = central_moments([1.0, 1.0, 1.0])
    assert (m.mean, m.m2, m.m3) == (1.0, 0.0, 0.0)


def test_central_moments_symmetric_sample():
    m = central_moments([0.0, 2.0, 1.0])
    assert m.mean == pytest.approx(1.0, abs=0)
    assert m.m2 == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert m.m3 == pytest.approx(0.0, abs=1e-15)


def test_central_moments_population_divisor():
    # 1/n, not 1/(n-1): variance of [0, 2] padded to three points
    m = central_moments([0.0, 0.0, 3.0])
    assert m.m2 == pytest.approx(2.0, rel=1e-15)  # mean 1, (1+1+4)/3


def test_central_moments_rejects_short_sample():
    with pytest.raises(ValidationError):
        central_moments([1.0, 2.0])


def test_skewness_direct():
    assert skewness(SampleMoments(0.0, 1.0, 4.0, 10)) == pytest.approx(4.0, abs=0)


def test_skewness_symmetric_zero():
    assert skewness(central_moments([0.0, 2.0, 1.0])) == pytest.approx(0.0, abs=1e-15)


def test_skewness_degenerate():
    with pytest.raises(DegenerateSampleError):
        skewness(SampleMoments(1.0, 0.0, 0.0, 10))


def test_constant_sample_has_exact_zero_moments():
    # mean roundoff must not manufacture variance out of a constant sample
    m = central_moments(np.full(100, 100.00000000000001))
    assert m.m2 == 0.0
    assert m.m3 == 0.0
    with pytest.raises(DegenerateSampleError):
        fit_shifted_lognormal(m)


def test_solve_eta_at_zero():
    assert solve_eta(0.0) == 1.0


def test_solve_eta_at_four():
    # eta=2 satisfies 8 + 12 - (4 + 16) = 0
    assert solve_eta(4.0) == pytest.approx(2.0, rel=1e-14)


def test_solve_eta_pinned():
    # bisection oracle on (eta+2) sqrt(eta-1) = 0.1237 over [1, 2]
    assert solve_eta(0.1237) == pytest.approx(1.0016982644986876, rel=1e-12)


def test_solve_eta_rejects_negative():
    with pytest.raises(ValidationError):
        solve_eta(-0.1)


def test_solve_eta_round_trip_uniform():
    # inverse of eta -> (eta+2) sqrt(eta-1): 1000 seeded cases over [0, 100]
    rng = np.random.default_rng(7041)
    for b in rng.uniform(0.0, 100.0, size=1000):
        eta = solve_eta(float(b))
        back = (eta + 2.0) * math.sqrt(eta - 1.0)
        assert abs(back - b) <= 1e-12 * (1.0 + b)


def _mp_excess(b: float) -> mpmath.mpf:
    # the 50-digit root of the cubic itself, started from the double root
    with mpmath.workdps(50):
        bsq = mpmath.mpf(b) ** 2
        return mpmath.findroot(lambda e: (3 + e) ** 2 * e - bsq, mpmath.mpf(_solve_excess(b)))


@pytest.mark.parametrize("lo, hi, bound", [(1e-4, 265.0, 6.0), (265.0, 1e9, 16.0)])
def test_excess_root_matches_50_digits(lo, hi, bound):
    # eps itself, not eta - 1, whose rounding near 1.0 hides eps's precision at
    # small |skew|; a sample of n <= 70 000 has |skew| <= sqrt(n) < 265, and
    # |skew| < 1e-4 takes the two-moment fallback
    worst = 0.0
    for b in np.geomspace(lo, hi, 241).tolist():
        want = _mp_excess(b)
        with mpmath.workdps(50):
            worst = max(worst, float(abs(mpmath.mpf(_solve_excess(b)) / want - 1)))
    assert worst <= bound * sys.float_info.epsilon, worst / sys.float_info.epsilon


def test_fit_at_a_huge_skew_is_finite():
    # |skew| = 1e160: no sample reaches it, but the cubic's b^2 would overflow
    m = SampleMoments(1.0, 1e-200, 1e-140, 3)
    assert skewness(m) == pytest.approx(1e160, rel=1e-12)
    fit = fit_shifted_lognormal(m)
    values = (fit.theta, fit.eps, fit.log_params.mu_X, fit.log_params.sigma_X)
    assert all(math.isfinite(v) for v in values), fit
    # (3 + eps)^2 eps = b^2 gives eps = b^(2/3) - 2 + O(b^(-2/3))
    assert fit.orientation == 1 and fit.eps == pytest.approx(1e160 ** (2.0 / 3.0), rel=1e-12)


def test_fit_recovers_synthetic_positive():
    fit = fit_shifted_lognormal(sln_moments(50.0, 1, 4.0, 0.05))
    assert fit.orientation == 1
    assert fit.theta == pytest.approx(50.0, rel=1e-9)
    assert fit.log_params.mu_X == pytest.approx(4.0, rel=1e-9)
    assert fit.log_params.sigma_X == pytest.approx(0.05, rel=1e-9)
    assert fit.tau == pytest.approx(50.0, rel=1e-9)


def test_fit_recovers_synthetic_negative():
    fit = fit_shifted_lognormal(sln_moments(200.0, -1, 4.0, 0.05))
    assert fit.orientation == -1
    assert fit.theta == pytest.approx(200.0, rel=1e-9)
    assert fit.log_params.mu_X == pytest.approx(4.0, rel=1e-9)
    assert fit.log_params.sigma_X == pytest.approx(0.05, rel=1e-9)
    assert fit.tau == pytest.approx(-200.0, rel=1e-9)


def test_fit_plug_back_randomized():
    # fitted law reproduces input mean/m2/m3 to 1e-9 relative, 1000 cases
    rng = np.random.default_rng(55821)
    for _ in range(1000):
        theta = rng.uniform(-100.0, 100.0)
        orientation = 1 if rng.uniform() < 0.5 else -1
        mu_X = rng.uniform(-2.0, 6.0)
        sigma_X = rng.uniform(0.005, 1.0)
        m = sln_moments(theta, orientation, mu_X, sigma_X)
        got = implied_moments(fit_shifted_lognormal(m))
        assert got.mean == pytest.approx(m.mean, rel=1e-9, abs=1e-9)
        assert got.m2 == pytest.approx(m.m2, rel=1e-9)
        assert got.m3 == pytest.approx(m.m3, rel=1e-9)


def test_fit_scale_equivariance():
    # scaling the sample by a scales theta by a, shifts mu_X by ln a, fixes sigma_X
    base = sln_moments(50.0, 1, 4.0, 0.05)
    a = 2.0
    scaled = SampleMoments(a * base.mean, a * a * base.m2, a**3 * base.m3, base.n)
    f0 = fit_shifted_lognormal(base)
    f1 = fit_shifted_lognormal(scaled)
    assert f1.theta == pytest.approx(a * f0.theta, rel=1e-13)
    assert f1.log_params.mu_X == pytest.approx(f0.log_params.mu_X + math.log(a), rel=1e-13)
    assert f1.log_params.sigma_X == pytest.approx(f0.log_params.sigma_X, rel=1e-13)


def test_fit_orientation_dispatch_from_samples():
    # draws from theta+Z fit with orientation +1, from theta-Z with -1
    rng = np.random.default_rng(48104)
    z = np.exp(4.0 + 0.3 * rng.standard_normal(100_000))
    plus = fit_shifted_lognormal(central_moments(10.0 + z))
    minus = fit_shifted_lognormal(central_moments(500.0 - z))
    assert plus.orientation == 1
    assert minus.orientation == -1


def test_fit_near_zero_skew_fallback():
    # symmetric input falls back to a plain lognormal matching mean and m2
    m = SampleMoments(100.0, 25.0, 0.0, 70000)
    fit = fit_shifted_lognormal(m)
    assert fit.orientation == 1
    assert fit.theta == 0.0
    assert lognormal_mean(fit.log_params) == pytest.approx(100.0, rel=1e-12)
    got = implied_moments(fit)
    assert got.m2 == pytest.approx(25.0, rel=1e-12)


def test_fit_degenerate_sample():
    with pytest.raises(DegenerateSampleError):
        fit_shifted_lognormal(SampleMoments(1.0, 0.0, 0.0, 10))


def test_lognormal_moments_unit():
    p = LognormalParams(0.0, 0.0)
    assert lognormal_mean(p) == 1.0
    assert lognormal_second_moment(p) == 1.0


def test_lognormal_mean_pinned():
    assert lognormal_mean(LognormalParams(4.838, 0.0431)) == pytest.approx(
        126.33395092616759, rel=1e-12
    )


def test_log_std_identity():
    # sqrt(ln(M2/M1^2)) recovers sigma_X for any parameters
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = LognormalParams(rng.uniform(-5.0, 5.0), rng.uniform(0.0, 2.0))
        m1 = lognormal_mean(p)
        m2 = lognormal_second_moment(p)
        assert math.sqrt(math.log(m2 / (m1 * m1))) == pytest.approx(
            p.sigma_X, rel=1e-12, abs=1e-12
        )

