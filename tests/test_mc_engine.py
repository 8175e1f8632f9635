"""Monte Carlo engine: determinism, golden streams, estimator contracts."""
import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DEFAULT_CONTRACT,
    DEFAULT_DYNAMICS,
    DEFAULT_MARKET,
    default_duration,
    default_spec,
    moment_bits,
    provider_slots,
    unit_spot,
)
from mtgopt.distfit import central_moments
from mtgopt.errors import NonFiniteResultError, ValidationError
from mtgopt import mc_engine
from mtgopt.harness import BaseParams, materialize
from mtgopt.mc_engine import (
    DEFAULT_SEED,
    MAX_FLOATS,
    SHARD_SIZE,
    Draws,
    McConfig,
    crn_delta,
    crn_sample,
    delta_on_sample,
    mix64,
    price_mc,
    simulate_terminal_prices,
    simulate_terminal_rates,
)
from mtgopt.model import DurationParams, MarketState, ModelSpec, OptionContract, RateDynamics, log_shape, price

# golden stream frozen at first implementation; any change to the generator,
# uniform mapping, or normal transform is a breaking change and must fail here.
# These are rate moves r_T - r0; adding r0 = 0.01 gives the absolute rates
# first pinned here bit for bit.
GOLDEN_RATES_SEED_12345 = [
    0.0037556593036847832,
    0.00752975220589774,
    0.007941167416429903,
    -0.00996116867057905,
    -0.009905903729800275,
]
GOLDEN_PRICES_C3_SEED_12345 = [
    98.06256684173232,
    96.14424995423197,
    95.93685951211266,
    105.27777875066265,
    105.24793556111447,
]
GOLDEN_PRICE_MC_C3 = 2.11131351390709
GOLDEN_SE_MC_C3 = 0.011783406227310807


def test_rates_golden_vector():
    got = simulate_terminal_rates(DEFAULT_DYNAMICS, 0.25, McConfig(n=5, seed=12345))
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
    a = simulate_terminal_rates(DEFAULT_DYNAMICS, 0.25, cfg)
    b = simulate_terminal_rates(DEFAULT_DYNAMICS, 0.25, cfg)
    assert np.array_equal(a, b)


def test_worker_count_does_not_change_results():
    cfg = McConfig(n=3 * SHARD_SIZE + 17, seed=4242)
    base = price_mc(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT, cfg, Draws(1))
    for workers in (2, 4):
        got = price_mc(default_spec(3.0), DEFAULT_DYNAMICS, DEFAULT_CONTRACT, cfg, Draws(workers))
        assert (got.price, got.std_error) == (base.price, base.std_error)
        assert np.array_equal(got.diagnostics, base.diagnostics)


def test_workers_below_one_rejected():
    for workers in (0, -3):
        with pytest.raises(ValidationError, match=f"workers must be >= 1, got {workers}"):
            Draws(workers)


def test_price_mc_hands_back_its_price_sample():
    spec = default_spec(3.0)
    cfg = McConfig(n=3000, seed=21)
    res = price_mc(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, cfg)
    sample = simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, cfg)
    assert res.diagnostics.tobytes() == sample.tobytes()


@pytest.mark.parametrize("C", [0.5, 3.0, 40.0])
@pytest.mark.parametrize("K", [90.0, 100.0, 110.0, 1e6])
def test_price_mc_equals_the_allocating_formula_bit_for_bit(C, K):
    spec = default_spec(C)
    c = OptionContract(K=K, T=0.25, r_f=0.0209)
    cfg = McConfig(n=70000, seed=19)
    prices = simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, cfg)
    disc = c.df * np.maximum(prices - c.K, 0.0)
    want = (float(np.mean(disc)), float(np.std(disc, ddof=1)) / math.sqrt(cfg.n))
    for draws in (None, Draws()):
        res = price_mc(spec, DEFAULT_DYNAMICS, c, cfg, draws)
        assert (res.price.hex(), res.std_error.hex()) == tuple(v.hex() for v in want)
        assert res.diagnostics.tobytes() == prices.tobytes()


@pytest.mark.parametrize("P0", [1e-3, 0.5, 1234.5, 1e6, 1e50])
def test_price_mc_keeps_the_allocating_formula_s_bits_at_any_normal_spot(P0):
    # the payoffs are scaled by a power of two before they are squared; where
    # nothing under- or overflows, that changes no bit of the price or the SE
    spec = ModelSpec.calibrate(default_duration(3.0), MarketState(P0, 0.01))
    cfg = McConfig(n=5000, seed=23)
    prices = simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, cfg)
    for ratio in (0.97, 1.0, 1.03):
        c = OptionContract(K=ratio * P0, T=0.25, r_f=0.0209)
        disc = c.df * np.maximum(prices - c.K, 0.0)
        want = (float(np.mean(disc)), float(np.std(disc, ddof=1)) / math.sqrt(cfg.n))
        res = price_mc(spec, DEFAULT_DYNAMICS, c, cfg)
        assert (res.price.hex(), res.std_error.hex()) == tuple(v.hex() for v in want), ratio


@pytest.mark.parametrize("C", [0.5, 3.0, 30.0])
def test_price_mc_and_its_standard_error_scale_with_the_spot(C):
    # at P0 = K = 100 lambda the price and the SE are lambda times their
    # lambda = 1 values: the squared payoff deviations neither underflow (the
    # SE was 0.0 at lambda = 1e-200 and 1 % high at 1e-160) nor overflow (the
    # SE raised at 1e300)
    cfg = McConfig(n=20000, seed=7)

    def at(lam: float, ratio: float):
        spec = ModelSpec.calibrate(default_duration(C), MarketState(100.0 * lam, 0.01))
        return price_mc(spec, DEFAULT_DYNAMICS, OptionContract(100.0 * ratio * lam, 0.25, 0.0209), cfg)

    for ratio in (0.97, 1.0, 1.03):
        one = at(1.0, ratio)
        for lam in (1e-300, 1e-200, 1e-160, 1e-100, 1e100, 1e300):
            res = at(lam, ratio)
            assert res.price / lam == pytest.approx(one.price, rel=1e-10), (ratio, lam)
            assert res.std_error / lam == pytest.approx(one.std_error, rel=1e-10), (ratio, lam)


@pytest.mark.parametrize("where", ["none", "one provider", "sweep"])
def test_later_calls_never_overwrite_earlier_results(where):
    # no provider, one provider that every call shares, or one that a sweep
    # releases after each group: the second crn_delta and price sample of a
    # group read what the first kept, and each delta's sample of P/P0 has the
    # moments of a fresh one, summed in ascending order
    draws = None if where == "none" else Draws()
    c = DEFAULT_CONTRACT

    def results(C: float, seed: int) -> list[np.ndarray]:
        spec, cfg = default_spec(C), McConfig(n=5000, seed=seed)
        f = simulate_terminal_prices(unit_spot(spec), DEFAULT_DYNAMICS, c.T, cfg)
        fresh = moment_bits(central_moments(np.sort(f)))
        out = [price_mc(spec, DEFAULT_DYNAMICS, c, cfg, draws).diagnostics]
        for _ in range(2):
            delta = crn_delta(spec, DEFAULT_DYNAMICS, c, cfg, draws)
            f_kept = crn_sample(spec, DEFAULT_DYNAMICS, c.T, cfg, draws or Draws())
            assert moment_bits(central_moments(f_kept)) == fresh
            assert delta == delta_on_sample(f_kept, c, spec.market.P0, cfg.bump)
        out += [
            simulate_terminal_prices(spec, DEFAULT_DYNAMICS, c.T, cfg, draws),
            simulate_terminal_prices(spec, DEFAULT_DYNAMICS, c.T, cfg, draws),
        ]
        if where == "sweep":
            draws.release()
        return out

    first = results(3.0, 41)
    kept = [a.tobytes() for a in first]
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(first, 2))
    for C, seed in ((40.0, 42), (0.5, 43), (3.0, 41)):
        later = results(C, seed)
        assert not any(np.shares_memory(a, b) for a in first for b in later)
    assert [a.tobytes() for a in first] == kept


@pytest.mark.parametrize("C", [1e-6, 3.0, 40.0])
@pytest.mark.parametrize("bump", [1e-4, 1e-8, 1.0])
def test_crn_delta_with_a_path_in_the_band_is_the_two_leg_difference(C, bump):
    # K sits between P0 f and (P0 + h) f of one path, which only the bumped
    # leg exercises; the two legs, priced here on P/P0, differ by the delta up
    # to their own roundoff of a few eps P0 / h
    spec = default_spec(C)
    cfg = McConfig(n=3000, seed=22, bump=bump)
    f = simulate_terminal_prices(unit_spot(spec), DEFAULT_DYNAMICS, 0.25, cfg)
    P0 = spec.market.P0
    c = OptionContract(K=(P0 + 0.5 * bump) * float(np.sort(f)[cfg.n // 2]), T=0.25, r_f=0.0209)
    assert np.count_nonzero((P0 * f < c.K) & ((P0 + bump) * f > c.K)) >= 1
    delta = crn_delta(spec, DEFAULT_DYNAMICS, c, cfg)
    sample = crn_sample(spec, DEFAULT_DYNAMICS, c.T, cfg, Draws())
    assert moment_bits(central_moments(sample)) == moment_bits(central_moments(np.sort(f)))
    up, base = (c.df * float(np.mean(np.maximum(s * f - c.K, 0.0))) for s in (P0 + bump, P0))
    eps = np.finfo(float).eps
    assert abs(delta - (up - base) / bump) <= 8.0 * eps * P0 / bump
    assert delta == crn_delta(spec, DEFAULT_DYNAMICS, c, cfg)


@pytest.mark.parametrize("C", [0.5, 3.0, 40.0])
def test_crn_delta_is_delta_on_sample_of_crn_sample_bit_for_bit(C):
    # on a fresh provider and on one that already keeps the sample
    cfg = McConfig(n=3000, seed=24)
    draws = Draws()
    for P0, K in ((95.0, 100.0), (100.0, 100.0), (106.0, 100.0), (100.0, 1e-300)):
        spec = ModelSpec.calibrate(default_duration(C), MarketState(P0, 0.01))
        c = OptionContract(K=K, T=0.25, r_f=0.0209)
        want = delta_on_sample(crn_sample(spec, DEFAULT_DYNAMICS, c.T, cfg, draws), c, P0, cfg.bump)
        for got in (crn_delta(spec, DEFAULT_DYNAMICS, c, cfg), crn_delta(spec, DEFAULT_DYNAMICS, c, cfg, draws)):
            assert isinstance(got, float) and got.hex() == want.hex(), (P0, K)


def draw_order_delta(f: np.ndarray, P0: float, c: OptionContract, h: float) -> float:
    """The forward difference summed on f in draw order: df/n [sum (f - k)+ +
    k #{f > k} + sum over the band K/(P0 + h) < f <= k of f + (P0 f - K)/h]."""
    k = c.K / P0
    above = np.count_nonzero(f > k)
    total = float(np.add.reduce(np.maximum(f - k, 0.0)))
    if above:
        total += k * above
    band = f[(f > c.K / (P0 + h)) & (f <= k)]
    if band.size:
        total += float(np.add.reduce(band + (P0 * band - c.K) / h))
    return c.df * total / f.size


# the benchmark's 12 spots at K = 100, then a K/P0 that overflows to inf and
# one that underflows to 0
DELTA_POINTS = [(float(P0), 100.0) for P0 in range(95, 107)] + [(1e-300, 1e10), (1e300, 1e-300)]


@pytest.mark.parametrize("C", [0.5, 3.0, 30.0, 40.0])
def test_crn_delta_is_within_4_eps_of_the_draw_order_sum(C, record_property):
    # the ascending f holds the draw-order f's values, so the delta moves only
    # with the order of its sums: sum over f > k of f, which cancels nothing
    eps = np.finfo(float).eps
    draws, worst = Draws(), 0.0
    for bump in (1e-14, 1e-4, 1e300):
        cfg = McConfig(n=70000, seed=23, bump=bump)
        f = simulate_terminal_prices(unit_spot(default_spec(C)), DEFAULT_DYNAMICS, 0.25, cfg)
        for P0, K in DELTA_POINTS:
            spec = ModelSpec.calibrate(default_spec(C).duration, MarketState(P0, 0.01))
            c = OptionContract(K=K, T=0.25, r_f=0.0209)
            got, want = crn_delta(spec, DEFAULT_DYNAMICS, c, cfg, draws), draw_order_delta(f, P0, c, bump)
            assert abs(got - want) <= 4.0 * eps * abs(want), (bump, P0, K, got, want)
            if want:
                worst = max(worst, abs(got - want) / want / eps)
            else:
                assert K / P0 == math.inf and got == 0.0
    record_property("worst_eps", worst)


@pytest.mark.parametrize("C", [3.0, 30.0])
def test_crn_delta_sorts_a_sample_whose_map_is_not_monotone(monkeypatch, C):
    # a map that wiggles in the rate move breaks the order of f along the
    # ascending z, so the order check fails and f is sorted before any spot
    # reads it: the deltas still match the draw-order sum and the moments are
    # those of the sorted sample, bit for bit
    def wiggly_shape(spec, d, out=None):
        wiggle = 1e-3 * np.sin(1e4 * d)
        A, B = log_shape(spec, d, out)
        return np.add(A, wiggle, out=A), B

    spec = default_spec(C)
    cfg = McConfig(n=5000, seed=29)
    moves = simulate_terminal_rates(DEFAULT_DYNAMICS, 0.25, cfg)
    A, B = wiggly_shape(spec, moves)
    f = np.exp(-(A + B))
    assert np.any(np.diff(f[np.argsort(moves)]) > 0.0)
    monkeypatch.setattr(mc_engine, "log_shape", wiggly_shape)
    draws = Draws()
    eps = np.finfo(float).eps
    for P0, K in DELTA_POINTS:
        at = ModelSpec.calibrate(spec.duration, MarketState(P0, 0.01))
        c = OptionContract(K=K, T=0.25, r_f=0.0209)
        got = crn_delta(at, DEFAULT_DYNAMICS, c, cfg, draws)
        want = draw_order_delta(f, P0, c, cfg.bump)
        assert abs(got - want) <= 4.0 * eps * abs(want), (P0, K, got, want)
        sample = crn_sample(at, DEFAULT_DYNAMICS, c.T, cfg, draws)
        assert moment_bits(central_moments(sample)) == moment_bits(central_moments(np.sort(f)))


def test_kept_log_shape_is_keyed_by_what_it_depends_on():
    # one provider across specs that differ only in L, U, sigma or P0: each
    # delta and its moments must still equal fresh ones (P0 shares the kept f)
    draws = Draws()
    cfg = McConfig(n=2000, seed=5)
    cases = [(default_spec(3.0), DEFAULT_DYNAMICS), (default_spec(3.0), RateDynamics(0.0, 0.03))]
    for L, U in ((2.0, 9.0), (1.0, 8.0)):
        spec = ModelSpec.calibrate(DurationParams(L, U, 3.0, 0.055), DEFAULT_MARKET)
        cases.append((spec, DEFAULT_DYNAMICS))
    spot = ModelSpec.calibrate(DurationParams(1.0, 8.0, 3.0, 0.055), MarketState(104.0, 0.01))
    cases.append((spot, DEFAULT_DYNAMICS))
    for spec, dyn in cases:
        assert crn_delta(spec, dyn, DEFAULT_CONTRACT, cfg, draws) == crn_delta(spec, dyn, DEFAULT_CONTRACT, cfg)
        kept, fresh = (crn_sample(spec, dyn, DEFAULT_CONTRACT.T, cfg, d) for d in (draws, Draws()))
        assert moment_bits(central_moments(kept)) == moment_bits(central_moments(fresh))


def test_kept_arrays_are_read_only_and_drawn_once():
    draws = Draws()
    z = draws.normals(5, 100)
    assert draws.normals(5, 100) is z
    with pytest.raises(ValueError, match="read-only"):
        z[0] = 0.0
    shape = draws.reuse(("terms",), 2, 100, lambda A, B: (A.fill(0.0), B.fill(1.0)))
    assert draws.reuse(("terms",), 2, 100, lambda *slots: pytest.fail("made twice")) is shape
    for a in shape:
        with pytest.raises(ValueError, match="read-only"):
            a += 1.0
    # work arrays are never kept ones
    for w in draws.work(3, 100):
        assert not any(np.shares_memory(w, a) for a in (z, *shape))
        w.fill(np.nan)
    assert shape[0].tolist() == [0.0] * 100 and shape[1].tolist() == [1.0] * 100
    # after release() the provider draws again, still read-only, into slots
    # that are work arrays again
    first = z.tobytes()
    draws.release()
    assert draws.normals(6, 100) is not z
    again = draws.normals(5, 100)
    assert again is not z and not again.flags.writeable
    assert again.tobytes() == first == Draws().normals(5, 100).tobytes()


def test_a_fill_that_keeps_gets_the_slots_after_its_own():
    # reuse reserves its slots before fill runs, as crn_delta's sample of
    # P/P0, which keeps z inside its fill, needs
    draws = Draws()
    (twice,) = draws.reuse(("twice",), 1, 50, lambda A: np.multiply(draws.normals(7, 50), 2.0, out=A))
    z = draws.normals(7, 50)
    assert not np.shares_memory(twice, z)
    assert twice.tobytes() == (2.0 * Draws().normals(7, 50)).tobytes()


def test_sorted_normals_are_the_draw_sorted_once_and_kept_apart(monkeypatch):
    drawn = []
    draw = mc_engine._standard_normals
    monkeypatch.setattr(mc_engine, "_standard_normals", lambda *args: (drawn.append(args[:2]), draw(*args)))
    draws = Draws()
    down = draws.descending_normals(5, 100)
    assert draws.descending_normals(5, 100) is down and not down.flags.writeable
    assert drawn == [(5, 100)]
    # the draw-order z was not kept with it: asked for, it is drawn again
    z = draws.normals(5, 100)
    assert drawn == [(5, 100)] * 2 and not np.shares_memory(z, down)
    assert down.tobytes() == np.sort(z)[::-1].tobytes()


def shard_formula(seed: int, n: int) -> np.ndarray:
    """The draw written out: shard j is the package's inverse CDF of
    ((raw >> 11) + 0.5) 2^-53, at most 1 - 2^-53, on the raw words of a Philox
    stream keyed (seed, j), started at counter 0."""
    shards = []
    for j, lo in enumerate(range(0, n, SHARD_SIZE)):
        raw = np.random.Philox(key=np.array([seed, j], dtype=np.uint64)).random_raw(min(SHARD_SIZE, n - lo))
        shards.append(mc_engine.ndtri(np.minimum(((raw >> np.uint64(11)) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)))
    return np.concatenate(shards)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [1, 2, SHARD_SIZE - 1, SHARD_SIZE, SHARD_SIZE + 1, 70000])
@pytest.mark.parametrize("seed", [0, 1, DEFAULT_SEED, 2**64 - 1])
def test_a_draw_is_the_shard_formula_bit_for_bit(seed, n, workers):
    want = shard_formula(seed, n)
    draws = Draws(workers)
    assert draws.normals(seed, n).tobytes() == want.tobytes()
    assert draws.descending_normals(seed, n).tobytes() == np.sort(want)[::-1].tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_an_empty_draw_is_empty(workers):
    draws = Draws(workers)
    assert draws.normals(1, 0).size == draws.descending_normals(1, 0).size == 0


def test_a_warm_draw_seeds_no_generator_from_entropy(monkeypatch):
    # each thread re-keys one Philox generator per shard; a new Philox(key=...)
    # per shard would build a SeedSequence from OS entropy that the key then
    # overrides. SeedSequence is an extension type that cannot be patched, so
    # the entropy source an unseeded one reads is made to raise instead
    from numpy.random import bit_generator

    def no_entropy(*args):
        raise AssertionError("drew OS entropy")

    def draw_twice():
        Draws().normals(1, 70000)
        monkeypatch.setattr(bit_generator, "randbits", no_entropy)
        with pytest.raises(AssertionError, match="OS entropy"):
            np.random.Philox(key=np.array([1, 0], dtype=np.uint64))
        return Draws().normals(2, 70000).tobytes(), Draws().descending_normals(3, 70000).tobytes()

    # on a new thread, whose generator its first draw makes
    with ThreadPoolExecutor(1) as pool:
        warm = pool.submit(draw_twice).result()
    monkeypatch.undo()
    assert warm == (shard_formula(2, 70000).tobytes(), np.sort(shard_formula(3, 70000))[::-1].tobytes())


def test_threads_that_draw_at_once_each_get_their_own_stream():
    # each thread re-keys a generator of its own between shards; a shared one
    # would hand a shard the stream another thread just keyed
    seeds = [(11, 12), (21, 22), (31, 32), (41, 42)]
    alone = [[Draws().normals(s, 70000).tobytes() for s in pair] for pair in seeds]
    all_started = threading.Barrier(len(seeds), timeout=60)

    def run(pair):
        all_started.wait()
        return [Draws().normals(s, 70000).tobytes() for _ in range(3) for s in pair]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(seeds)) as pool:
            got = [f.result(timeout=120) for f in [pool.submit(run, pair) for pair in seeds]]
    finally:
        sys.setswitchinterval(interval)
    assert got == [a * 3 for a in alone]


def test_a_fill_that_raises_gives_its_slots_back():
    draws = Draws()
    handed = []

    def fails(out):
        handed.append(out)
        raise RuntimeError("fill failed")

    for _ in range(3):
        with pytest.raises(RuntimeError, match="fill failed"):
            draws.reuse(("bad",), 1, 100, fails)
    assert provider_slots(draws) == 1
    z = draws.normals(5, 100)
    assert all(np.shares_memory(z, a) for a in handed)

    # what a failing fill kept in the slots after its own goes back with them
    def keeps_then_fails(out):
        draws.normals(6, 100)
        raise RuntimeError("fill failed")

    with pytest.raises(RuntimeError, match="fill failed"):
        draws.reuse(("bad",), 1, 100, keeps_then_fails)
    assert list(draws._kept) == [("z", 5, 100)] and draws._held == 1
    for w in draws.work(2, 100):
        assert not np.shares_memory(w, z)
        w.fill(np.nan)
    assert z.tobytes() == Draws().normals(5, 100).tobytes()


# the largest distance of the tails from scipy.special.ndtri over 2e7 draws:
# numpy's SIMD log differs from the C library's there
NDTRI_TAIL_ULP = 6


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """How many doubles apart a and b are, for values of one sign."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def ndtri_reference_points() -> np.ndarray:
    """10^6 uniforms of the draw's form (k + 1/2) 2^-53, 10^5 deep in the
    tails, and the edges: the smallest and largest uniforms a draw makes, the
    neighbours of e^-32, where the tail switches to P2/Q2, and of the centre's
    bounds e^-2 and 1 - e^-2."""
    rng = np.random.default_rng(27)
    e2, e32 = mc_engine._E2, math.exp(-32.0)
    edges = [2.0**-54, 1.0 - 2.0**-53, 0.5]
    for x in (e32, e2, 1.0 - e2):
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]
    deep = np.exp(rng.uniform(math.log(2.0**-54), math.log(e2), 100_000))
    return np.concatenate([(rng.integers(0, 2**53, 1_000_000) + 0.5) * 2.0**-53, deep, 1.0 - deep, edges])


def test_ndtri_is_scipy_s_bit_for_bit_in_the_centre_and_within_a_few_ulp_in_the_tails():
    from scipy.special import ndtri as scipy_ndtri

    u = ndtri_reference_points()
    got, want = mc_engine.ndtri(u), scipy_ndtri(u)
    centre = (u > mc_engine._E2) & (u <= 1.0 - mc_engine._E2)
    assert centre.sum() > 700_000 and (~centre).sum() > 400_000
    assert got[centre].tobytes() == want[centre].tobytes()
    assert np.isfinite(got).all() and np.array_equal(np.sign(got), np.sign(want))
    assert ulp_distance(got[~centre], want[~centre]).max() <= NDTRI_TAIL_ULP
    # the edges, one by one: each branch, and P2/Q2 past x = 8
    for p, z in zip(u[-12:], got[-12:]):
        assert ulp_distance(np.array([z]), scipy_ndtri(np.array([p]))).max() <= NDTRI_TAIL_ULP, p


@pytest.mark.parametrize("cuts", [(1,), (7,), (8,), (13, 100_003), (4096, 65_537, 500_001), (1_000_000,)])
def test_ndtri_of_any_split_is_the_ndtri_of_the_whole(cuts):
    # each worker inverts its own piece of a draw, so no value may depend on
    # where its piece starts or ends, sorted or not
    u = ndtri_reference_points()
    whole = mc_engine.ndtri(u)
    assert np.concatenate([mc_engine.ndtri(p) for p in np.split(u, cuts)]).tobytes() == whole.tobytes()
    up = np.sort(u)
    pieces = []
    for p in np.split(up, cuts):
        p = p.copy()
        mc_engine._invert_ascending(p, (np.empty(p.size), np.empty(p.size)))
        pieces.append(p)
    assert np.concatenate(pieces).tobytes() == mc_engine.ndtri(up).tobytes()


def test_ndtri_keeps_its_shape_and_leaves_its_argument_alone():
    p = np.array([[0.25, 0.5], [1e-20, 0.975]])
    before = p.tobytes()
    z = mc_engine.ndtri(p)
    assert z.shape == (2, 2) and p.tobytes() == before
    assert z[0, 1] == 0.0 and z.ravel().tolist() == mc_engine.ndtri(p.ravel()).tolist()
    assert mc_engine.ndtri(np.empty(0)).size == 0


class TopWord:
    """A stand-in generator whose every double is the top word's, (2^53 - 1) 2^-53."""

    def __init__(self):
        self.bit_generator = SimpleNamespace(state=None)

    def random(self, out):
        out.fill((2**53 - 1) * 2.0**-53)
        return out


def test_the_top_philox_word_draws_the_largest_uniform_below_one(monkeypatch):
    # k 2^-53 + 2^-54 rounds half to even to 1.0 at k = 2^53 - 1, whose
    # inverse CDF is +inf: with L = 0 the map's A = inf * 0 was NaN
    assert (2**53 - 1) * 2.0**-53 + 2.0**-54 == 1.0
    monkeypatch.setattr(mc_engine._thread, "philox", TopWord(), raising=False)
    top = mc_engine.ndtri(np.array([1.0 - 2.0**-53]))[0]
    assert 8.2 < top < 8.21
    draws = Draws()
    assert draws.normals(1, 5).tolist() == [top] * 5
    assert draws.descending_normals(1, 5).tolist() == [top] * 5
    spec = ModelSpec.calibrate(DurationParams(L=0.0, U=9.0, C=3.0, x0=0.055), DEFAULT_MARKET)
    prices = simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, McConfig(n=5, seed=1), Draws())
    assert np.isfinite(prices).all()


def test_work_arrays_taken_before_a_draw_leave_its_sample_intact():
    # the work pair was taken before z was drawn, so z was kept in the first
    # of its slots: the first call mapped z over itself, and the next calls
    # read that map as z, giving prices near 0.04 instead of 100
    spec, cfg = default_spec(3.0), McConfig(n=1000, seed=5)
    fresh = simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, cfg, Draws()).tobytes()
    draws = Draws()
    for _ in range(3):
        prices, work = draws.work(2, cfg.n)
        simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, cfg, draws, (prices, work))
        assert prices.tobytes() == fresh


PROVIDER_CALLS = st.lists(
    st.tuples(st.sampled_from(["work", "normals", "descending", "twice", "const", "mark", "release"]),
              st.integers(1, 3)),
    max_size=24,
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(PROVIDER_CALLS)
def test_kept_arrays_survive_any_interleaving_of_work_draws_and_releases(calls):
    # every work array the provider ever hands out is filled with NaN after
    # each call; every array still kept must read back as a fresh provider's
    n = 100
    want = {}
    for s in (1, 2, 3):
        z = Draws().normals(s, n)
        want[("z", s)] = (z.tobytes(),)
        want[("descending", s)] = (Draws().descending_normals(s, n).tobytes(),)
        want[("twice", s)] = ((2.0 * z).tobytes(),)
        want[("const", s)] = tuple(np.full(n, 10.0 * s + i).tobytes() for i in range(2))
    draws = Draws()
    handed, live, marks = [], {}, []

    def const(s):
        def fill(*slots):
            handed.extend(draws.work(3, n))
            for i, a in enumerate(slots):
                a.fill(10.0 * s + i)

        return fill

    for op, s in calls:
        if op == "work":
            handed.extend(draws.work(s, n))
        elif op == "mark":
            marks.append((draws.mark(), len(live)))
        elif op == "release":
            mark, count = marks.pop() if marks else ((0, 0), 0)
            draws.release(mark)
            live = dict(list(live.items())[:count])
        elif op == "normals":
            live.setdefault(("z", s), (draws.normals(s, n),))
        elif op == "descending":
            live.setdefault(("descending", s), (draws.descending_normals(s, n),))
        elif op == "const":
            live.setdefault(("const", s), draws.reuse(("const", s), 2, n, const(s)))
        else:
            # the fill keeps z before the provider keeps its product
            twice = draws.reuse(("twice", s), 1, n, lambda A: np.multiply(draws.normals(s, n), 2.0, out=A))
            live.setdefault(("z", s), (draws.normals(s, n),))
            live.setdefault(("twice", s), twice)
        for w in handed:
            w.fill(np.nan)
        for key, arrays in live.items():
            assert tuple(a.tobytes() for a in arrays) == want[key], (key, calls)


def test_a_price_past_the_largest_float_names_the_leaves_of_its_law():
    spec = ModelSpec.calibrate(default_duration(3.0), MarketState(1.7e308, 0.01))
    with pytest.raises(NonFiniteResultError) as err:
        simulate_terminal_prices(spec, DEFAULT_DYNAMICS, 0.25, McConfig(n=20000), Draws())
    assert str(err.value) == (
        "price map overflows at P0=1.7e+308, L=1.0, U=9.0, C=3.0, mu=0.0, sigma=0.02, T=0.25"
    )


def test_a_change_of_n_drops_the_slots():
    draws = Draws()
    small = draws.normals(5, 100)
    before = small.tobytes()
    big = draws.normals(5, 200)
    for w in draws.work(4, 200):
        w.fill(np.nan)
    assert small.tobytes() == before and big[:100].tobytes() == before
    assert not np.shares_memory(small, big)


def test_sample_prefix_stable_in_n():
    # growing n extends the sample without changing earlier draws
    a = simulate_terminal_rates(DEFAULT_DYNAMICS, 0.25, McConfig(n=SHARD_SIZE, seed=7))
    b = simulate_terminal_rates(DEFAULT_DYNAMICS, 0.25, McConfig(n=SHARD_SIZE + 3, seed=7))
    assert np.array_equal(a, b[:SHARD_SIZE])


def test_rate_sample_mean_sanity():
    cfg = McConfig(n=70000, seed=2024)
    moves = simulate_terminal_rates(DEFAULT_DYNAMICS, 0.25, cfg)
    se = 0.02 * math.sqrt(0.25) / math.sqrt(cfg.n)
    assert abs(float(np.mean(moves)) - 0.0) < 4 * se


def test_vanishing_volatility_pins_rates():
    dyn = RateDynamics(mu=0.04, sigma=1e-300)
    moves = simulate_terminal_rates(dyn, 0.25, McConfig(n=100, seed=1))
    assert np.allclose(moves, 0.02 - DEFAULT_MARKET.r0, rtol=0, atol=1e-12)


def test_monotone_rate_price_pairing():
    spec = default_spec(3.0)
    cfg = McConfig(n=1000, seed=5)
    rates = simulate_terminal_rates(DEFAULT_DYNAMICS, 0.25, cfg)
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
    # sigma ~ 0, deep ITM: price is linear in P0, so delta = df P*/P0
    dyn = RateDynamics(mu=0.0, sigma=1e-300)
    spec = default_spec(3.0)
    c = OptionContract(K=50.0, T=0.25, r_f=0.0209)
    want = math.exp(-0.0209 * 0.25) * float(price(spec, 0.0)) / 100.0
    got = crn_delta(spec, dyn, c, McConfig(n=100, seed=3))
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
        crn.append(crn_delta(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, cfg))
        up_cfg = McConfig(n=2000, seed=mix64(seed, 1))
        indep.append((mc_price(up, up_cfg) - mc_price(spec, cfg)) / h)
    assert np.var(crn) < np.var(indep)


def test_delta_central_close_to_forward():
    spec = default_spec(3.0)
    cfg = McConfig(n=20000, seed=8)
    h = cfg.bump
    fwd = crn_delta(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, cfg)
    ctr = (mc_price(bumped_spec(spec, h), cfg) - mc_price(bumped_spec(spec, -h), cfg)) / (2.0 * h)
    assert ctr == pytest.approx(fwd, rel=1e-2)


@pytest.mark.parametrize("C", [0.5, 3.0, 30.0])
def test_delta_smallest_accepted_bump_matches_default(C):
    # at n = 2000 no path crosses the strike between the two bumps (at
    # n = 70000 one does, which moves the delta by about 1.1e-5)
    spec = default_spec(C)
    small = crn_delta(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=2000, bump=1e-7))
    default = crn_delta(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=2000))
    assert abs(small - default) < 1e-6


def test_delta_at_small_curvature_is_not_quantized():
    # both legs share one curve shape, so a small bump still moves the price
    spec = default_spec(1e-6)
    default = crn_delta(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=2000))
    for bump in (1e-6, 1e-7):
        small = crn_delta(spec, DEFAULT_DYNAMICS, DEFAULT_CONTRACT, McConfig(n=2000, bump=bump))
        assert abs(small - default) <= 1e-6


def test_mc_config_defaults_are_the_bundle_defaults():
    assert McConfig().seed == DEFAULT_SEED == 38590
    assert materialize(BaseParams(C=3.0))[3] == McConfig()


def test_mc_config_validation():
    with pytest.raises(ValidationError):
        McConfig(n=0, seed=1)
    with pytest.raises(ValidationError):
        McConfig(n=100, seed=1, bump=0.0)
    # n floats must fit one array; the next n past that is rejected by name
    McConfig(n=MAX_FLOATS)
    past = f"sample count n must be <= {MAX_FLOATS}, got {MAX_FLOATS + 1}"
    with pytest.raises(ValidationError, match=past):
        McConfig(n=MAX_FLOATS + 1)


def test_mix64_is_deterministic_and_spread():
    assert mix64(1, 2, 3) == 17106668304135283436
    assert mix64(0) != mix64(1)
    assert mix64(1, 2) != mix64(2, 1)  # order matters
