"""End-to-end acceptance gates, one test (and one pass/fail line) per criterion.

Reference values are the table rows this package is built to reproduce;
tolerances are part of the contract and must not be widened. The skew/fit
gates (criteria 2 and 3) compare one seeded finite sample against fixed
reference rows, so they hold at the package's pinned default seed (the
reference rows themselves correspond to one particular draw); the sweep
gates (4 and 5) run the same grids the harness ships as defaults.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mtgopt.cli import main as cli_main
from mtgopt.distfit import (
    SampleMoments,
    TwoLognormalSpec,
    fit_shifted_lognormal,
    lognormal_mean,
    lognormal_second_moment,
    match_two_lognormal_sum,
    solve_eta,
)
from mtgopt.harness import (
    DEFAULT_SEED,
    BaseParams,
    SweepAxis,
    SweepSpec,
    run_sweep,
    skew_table,
)
from mtgopt.mc_engine import McConfig, price_mc
from mtgopt.model import (
    DurationParams,
    MarketState,
    ModelSpec,
    OptionContract,
    RateDynamics,
    duration,
    price,
)
from mtgopt.pricer_closed import delta_ln, gamma_ln, price_ln

# reference rows: C -> (skew, mu_X, sigma_X, tau)
REFERENCE_ROWS = {
    0.5: (0.1236835, 4.8383091, 0.0431144, -26.3897938),
    1.0: (0.1162353, 4.8911724, 0.0405153, -33.2424301),
    2.0: (0.1010308, 5.0126047, 0.0352110, -50.4261475),
    3.0: (0.0854314, 5.1612134, 0.0297708, -74.5039283),
    4.0: (0.0694575, 5.3487801, 0.0242015, -110.4771148),
    5.0: (0.0531310, 5.5969911, 0.0185106, -169.7371020),
    6.0: (0.0364751, 5.9530868, 0.0127061, -285.0605100),
    10.0: (-0.0329438, 5.9722431, 0.0114670, -492.2735105),
    15.0: (-0.1239802, 4.5395958, 0.0430598, -193.5528287),
    20.0: (-0.2164493, 3.8734434, 0.0748392, -148.0180305),
    30.0: (-0.3918973, 3.0693251, 0.1329803, -121.4553139),
    40.0: (-0.5349625, 2.5738760, 0.1755753, -113.0580899),
}
CURVATURES = tuple(REFERENCE_ROWS)
LOW_CURVATURES = CURVATURES[:7]
STRIKES = tuple(97.0 + 0.5 * i for i in range(13))
SPOTS = tuple(float(p) for p in range(95, 107))


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def reference_sample_rows():
    t0 = time.monotonic()
    rows = skew_table(list(CURVATURES), BaseParams(), McConfig(70000, DEFAULT_SEED))
    return rows, time.monotonic() - t0


def test_criterion_01_default_bundle(capsys):
    code = cli_main(["defaults"])
    doc = json.loads(capsys.readouterr().out)
    expected = {
        ("contract", "T"): 0.25,
        ("contract", "r_f"): 0.0209,
        ("contract", "K"): 100.0,
        ("market", "P0"): 100.0,
        ("market", "r0"): 0.01,
        ("dynamics", "mu"): 0.0,
        ("dynamics", "sigma"): 0.02,
        ("model", "L"): 1.0,
        ("model", "U"): 9.0,
        ("model", "x0"): 0.055,
    }
    bad = [k for k, v in expected.items() if doc[k[0]][k[1]] != v]
    with capsys.disabled():
        report(
            "criterion 1 (default bundle)",
            code == 0 and not bad,
            f"exact match on {len(expected)} values" if not bad else f"mismatch: {bad}",
        )


def test_criterion_02_skew_reproduction(reference_sample_rows, capsys):
    rows, dt = reference_sample_rows
    devs = {r.C: abs(r.skew - REFERENCE_ROWS[r.C][0]) for r in rows}
    worst = max(devs.values())
    ok = worst <= 0.03 and dt < 5.0
    with capsys.disabled():
        report(
            "criterion 2 (skew reproduction, 12 curvatures)",
            ok,
            f"max dev {worst:.4f} <= 0.03, runtime {dt:.2f}s < 5s",
        )


def test_criterion_03_fit_reproduction(reference_sample_rows, capsys):
    rows, _ = reference_sample_rows
    by_c = {r.C: r for r in rows}
    checks = []
    for c_val, tol_tau, tol_mu, tol_sigma in ((0.5, 1.5, 0.02, 0.002), (30.0, 3.0, 0.05, 0.01)):
        _, mu_ref, sigma_ref, tau_ref = REFERENCE_ROWS[c_val]
        r = by_c[c_val]
        checks.append((f"C={c_val} tau", abs(r.fit.tau - tau_ref), tol_tau))
        checks.append((f"C={c_val} mu_X", abs(r.fit.log_params.mu_X - mu_ref), tol_mu))
        checks.append((f"C={c_val} sigma_X", abs(r.fit.log_params.sigma_X - sigma_ref), tol_sigma))
    bad = [(n, d, t) for n, d, t in checks if d > t]
    detail = "; ".join(f"{n} dev {d:.4g} (tol {t})" for n, d, t in checks)
    with capsys.disabled():
        report("criterion 3 (fit reproduction, C=0.5 and C=30)", not bad, detail)


def test_criterion_04_sln_accuracy(capsys):
    t0 = time.monotonic()
    cells = run_sweep(
        SweepSpec(
            base=BaseParams(),
            axis1=SweepAxis("K", STRIKES),
            axis2=SweepAxis("C", CURVATURES),
            engines=("SLN", "MC"),
        )
    )
    dt = time.monotonic() - t0
    worst = max(abs(c.rel_diff_sln_pct) for c in cells)
    ok = worst <= 3.0 and dt < 120.0
    with capsys.disabled():
        report(
            "criterion 4 (SLN accuracy, 13 strikes x 12 curvatures)",
            ok,
            f"max |rel diff| {worst:.3f}% <= 3%, runtime {dt:.1f}s < 120s",
        )


def test_criterion_05_ln_accuracy(capsys):
    price_cells = run_sweep(
        SweepSpec(
            base=BaseParams(),
            axis1=SweepAxis("K", STRIKES),
            axis2=SweepAxis("C", LOW_CURVATURES),
            engines=("LN", "MC"),
        )
    )
    worst_price = max(abs(c.rel_diff_ln_pct) for c in price_cells)
    delta_cells = run_sweep(
        SweepSpec(
            base=BaseParams(),
            axis1=SweepAxis("P0", SPOTS),
            axis2=SweepAxis("C", LOW_CURVATURES),
            engines=("LN", "MC"),
            greek="delta",
        )
    )
    worst_delta = max(abs(c.rel_diff_ln_pct) for c in delta_cells)
    ok = worst_price <= 2.0 and worst_delta <= 4.0
    with capsys.disabled():
        report(
            "criterion 5 (LN accuracy, price and delta grids)",
            ok,
            f"max price |rel diff| {worst_price:.3f}% <= 2%, "
            f"max delta |rel diff| {worst_delta:.3f}% <= 4%",
        )


def test_criterion_06_closed_form_greeks(capsys):
    rng = np.random.default_rng(20260816)
    worst_delta = worst_gamma = 0.0
    for _ in range(50):
        dur = DurationParams(
            L=rng.uniform(0.2, 3.0),
            U=rng.uniform(1.0, 12.0),
            C=rng.uniform(0.1, 50.0),
            x0=rng.uniform(0.01, 0.10),
        )
        p0 = rng.uniform(80.0, 120.0)
        market = MarketState(P0=p0, r0=rng.uniform(0.0, 0.08))
        dyn = RateDynamics(mu=rng.uniform(-0.01, 0.01), sigma=rng.uniform(0.01, 0.04))
        contract = OptionContract(
            K=p0 * rng.uniform(0.95, 1.05), T=rng.uniform(0.25, 1.0),
            r_f=rng.uniform(0.0, 0.05),
        )

        def px(p0_val):
            spec = ModelSpec.calibrate(dur, MarketState(p0_val, market.r0))
            return price_ln(spec, dyn, contract).price

        spec = ModelSpec.calibrate(dur, market)
        h = 1e-3
        fd_delta = (px(p0 + h) - px(p0 - h)) / (2.0 * h)
        d = delta_ln(spec, dyn, contract)
        worst_delta = max(worst_delta, abs(fd_delta - d) / abs(d))
        h = 1e-2
        fd_gamma = (px(p0 + h) - 2.0 * px(p0) + px(p0 - h)) / (h * h)
        g = gamma_ln(spec, dyn, contract)
        worst_gamma = max(worst_gamma, abs(fd_gamma - g) / abs(g))
    ok = worst_delta <= 1e-5 and worst_gamma <= 1e-3
    with capsys.disabled():
        report(
            "criterion 6 (closed-form greeks vs finite differences, 50 sets)",
            ok,
            f"max delta rel err {worst_delta:.2e} <= 1e-5, "
            f"max gamma rel err {worst_gamma:.2e} <= 1e-3",
        )


def test_criterion_07_moment_matching_exactness(capsys):
    rng = np.random.default_rng(907)
    t0 = time.monotonic()
    worst_fit = 0.0
    for _ in range(1000):
        # stay above the near-zero-skew fallback threshold, where the fit
        # intentionally matches only two moments
        b = 10.0 ** rng.uniform(math.log10(2e-4), math.log10(50.0))
        orient = 1 if rng.uniform() < 0.5 else -1
        eta = solve_eta(b)
        ez = math.exp(rng.uniform(-1.0, 6.0))
        # keep the mean away from 0 so relative error stays well posed
        mean = rng.uniform(0.5, 200.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        m2 = ez * ez * (eta - 1.0)
        m3 = orient * ez**3 * (eta - 1.0) ** 2 * (eta + 2.0)
        m = SampleMoments(mean, m2, m3, 100)
        back = fit_shifted_lognormal(m).implied_moments(100)
        worst_fit = max(
            worst_fit,
            abs(back.mean - m.mean) / max(abs(m.mean), 1e-30),
            abs(back.m2 - m.m2) / m.m2,
            abs(back.m3 - m.m3) / abs(m.m3),
        )
    worst_two = 0.0
    for _ in range(1000):
        s1, s2 = rng.uniform(1e-6, 1.0, size=2)
        rho = rng.uniform(-1.0, 1.0)
        spec = TwoLognormalSpec(
            mu1=rng.uniform(-2.0, 6.0), sigma1_sq=s1,
            mu2=rng.uniform(-2.0, 6.0), sigma2_sq=s2,
            cov=rho * math.sqrt(s1 * s2),
        )
        matched = match_two_lognormal_sum(spec)
        m1_true = math.exp(spec.mu1 + 0.5 * s1) + math.exp(spec.mu2 + 0.5 * s2)
        m2_true = (
            math.exp(2.0 * spec.mu1 + 2.0 * s1)
            + 2.0 * math.exp(spec.mu1 + spec.mu2 + 0.5 * (s1 + s2) + spec.cov)
            + math.exp(2.0 * spec.mu2 + 2.0 * s2)
        )
        worst_two = max(
            worst_two,
            abs(lognormal_mean(matched) - m1_true) / m1_true,
            abs(lognormal_second_moment(matched) - m2_true) / m2_true,
        )
    worst_eta = 0.0
    for b in np.concatenate([rng.uniform(0.0, 100.0, size=998), [0.0, 4.0]]):
        eta = solve_eta(float(b))
        back = (eta + 2.0) * math.sqrt(eta - 1.0)
        worst_eta = max(worst_eta, abs(back - b) / max(b, 1.0))
    dt = time.monotonic() - t0
    ok = worst_fit <= 1e-9 and worst_two <= 1e-12 and worst_eta <= 1e-12 and dt < 1.0
    with capsys.disabled():
        report(
            "criterion 7 (moment-matching exactness, 1000 cases each)",
            ok,
            f"fit plug-back {worst_fit:.2e} <= 1e-9, two-lognormal {worst_two:.2e} "
            f"<= 1e-12, eta round-trip {worst_eta:.2e} <= 1e-12, runtime {dt:.2f}s < 1s",
        )


def test_criterion_08_duration_ode_property(capsys):
    rng = np.random.default_rng(808)
    h = 1e-6
    worst = 0.0
    for _ in range(200):
        dur = DurationParams(
            L=rng.uniform(0.0, 3.0),
            U=rng.uniform(1.0, 12.0),
            C=rng.uniform(0.1, 50.0),
            x0=rng.uniform(0.01, 0.10),
        )
        r0 = rng.uniform(0.0, 0.08)
        spec = ModelSpec.calibrate(dur, MarketState(rng.uniform(80.0, 120.0), r0))
        for r in (r0 - 0.02, r0, r0 + 0.02, r0 + 0.05):
            fd = (price(spec, r + h) - price(spec, r - h)) / (2.0 * h)
            exact = -duration(dur, r) * price(spec, r)
            worst = max(worst, abs(fd - exact) / abs(exact))
    ok = worst <= 1e-6
    with capsys.disabled():
        report(
            "criterion 8 (price slope equals -D(r)P(r), 200 sets x 4 rates)",
            ok,
            f"max rel err {worst:.2e} <= 1e-6",
        )


def test_criterion_09_low_curvature_exactness(capsys):
    model = ModelSpec.calibrate(
        DurationParams(1.0, 9.0, 0.01, 0.055), MarketState(100.0, 0.01)
    )
    dyn = RateDynamics(0.0, 0.02)
    contract = OptionContract(100.0, 0.25, 0.0209)
    ln = price_ln(model, dyn, contract).price
    mc = price_mc(model, dyn, contract, McConfig(70000, DEFAULT_SEED, 0.0001))
    gap = abs(ln - mc.price)
    ok = gap <= 3.0 * mc.std_error
    with capsys.disabled():
        report(
            "criterion 9 (C=0.01 lognormal limit)",
            ok,
            f"|ln - mc| = {gap:.5f} <= 3*SE = {3.0 * mc.std_error:.5f}",
        )


def _run(args):
    return subprocess.run(
        [sys.executable, "-m", "mtgopt.cli", *args], capture_output=True, timeout=300
    )


def test_criterion_10_determinism(tmp_path, capsys):
    checks = []

    def twice(args):
        r1, r2 = _run(args), _run(args)
        checks.append((" ".join(args[:2]), r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0))

    twice(["defaults"])
    twice(["price", "--method", "mc", "--set", "C=3", "--seed", "11"])
    twice(["price", "--method", "sln", "--set", "C=3", "--seed", "11"])
    twice(["price", "--method", "ln", "--set", "C=3"])
    twice(["greeks", "--method", "mc", "--set", "C=3", "--seed", "11"])
    twice(["fit", "--set", "C=0.5", "--seed", "11"])

    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    sweep = ["sweep", "--axis1", "K=99,101", "--axis2", "C=0.5,3", "--seed", "11",
             "--set", "n=2000"]
    r1 = _run([*sweep, "--out", str(out1)])
    r2 = _run([*sweep, "--out", str(out2)])
    r3 = _run([*sweep, "--out", str(out3), "--workers", "3"])
    checks.append(("sweep reruns", r1.returncode == 0 and out1.read_bytes() == out2.read_bytes()))
    checks.append(("sweep workers 1 vs 3", out1.read_bytes() == out3.read_bytes()))

    q1, q2 = tmp_path / "q1.csv", tmp_path / "q2.csv"
    qq = ["qq", "--set", "C=3", "--seed", "11", "--set", "n=2000", "--quantiles", "19"]
    _run([*qq, "--out", str(q1)])
    _run([*qq, "--out", str(q2), "--workers", "3"])
    checks.append(("qq rerun + workers", q1.read_bytes() == q2.read_bytes()))

    mc1 = _run(["price", "--method", "mc", "--set", "C=3", "--seed", "11", "--workers", "4"])
    mc0 = _run(["price", "--method", "mc", "--set", "C=3", "--seed", "11"])
    checks.append(("price mc workers 1 vs 4", mc1.stdout == mc0.stdout))

    bad = [name for name, ok in checks if not ok]
    with capsys.disabled():
        report(
            "criterion 10 (byte-identical reruns and worker counts)",
            not bad,
            f"{len(checks)} command comparisons" + (f"; failed: {bad}" if bad else ""),
        )
