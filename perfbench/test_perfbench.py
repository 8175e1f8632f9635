"""Tests of the benchmark's own code: tracer counts, oracle and output checks.

Run with ``python3 -m pytest perfbench``.
"""
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hostref
import oracle
import run
import tracer
import workloads

workloads.require_src()

from mtgopt import harness, mc_engine, model, pricer_closed  # noqa: E402

HERE = Path(__file__).resolve().parent

# per-op counts on the full grid with n = 70000
TABLE = {
    "sweep_ref": {
        "mc_engine.draw.calls_per_op": 39,
        "mc_engine.draw.normals_per_op": 2_730_000,
        "mc_engine.draw.unique_ratio": 26 / 39,
        "model.price.calls_per_op": 52,
        "model.price.elements_per_op": 2_730_273,
        "model.calibrate.calls_per_op": 13,
        "distfit.moments.calls_per_op": 26,
        "distfit.fit.calls_per_op": 13,
        "pricer_closed.ln_law.calls_per_op": 13,
    },
    "sweep_crn_delta": {
        "mc_engine.draw.calls_per_op": 24,
        "mc_engine.draw.normals_per_op": 1_680_000,
        "mc_engine.draw.unique_ratio": 1 / 24,
        "model.price.calls_per_op": 36,
        "model.price.elements_per_op": 2_520_000,
        "model.calibrate.calls_per_op": 36,
        "distfit.moments.calls_per_op": 12,
        "distfit.fit.calls_per_op": 0,
        "pricer_closed.ln_law.calls_per_op": 12,
    },
    "closed_form": {
        "mc_engine.draw.calls_per_op": 0,
        "mc_engine.draw.normals_per_op": 0,
        "mc_engine.draw.unique_ratio": 0,
        "model.price.calls_per_op": 1,
        "model.price.elements_per_op": 21,
        "model.calibrate.calls_per_op": 0,
        "distfit.moments.calls_per_op": 0,
        "distfit.fit.calls_per_op": 0,
        "pricer_closed.ln_law.calls_per_op": 3,
    },
}

# per cell of a sweep op on a grid of `cells` points with n draws:
# sweep_ref draws 3 samples (MC, its skew redraw, the SLN fit sample), 2 distinct;
# sweep_crn_delta draws 2 (MC delta and the skew redraw) of one sample per op
def tiny_table(name, cells, n):
    if name == "sweep_ref":
        return {
            "mc_engine.draw.calls_per_op": 3 * cells,
            "mc_engine.draw.normals_per_op": 3 * cells * n,
            "mc_engine.draw.unique_ratio": 2 / 3,
            "model.price.calls_per_op": 4 * cells,
            "model.price.elements_per_op": cells * (3 * n + 21),
            "model.calibrate.calls_per_op": cells,
            "distfit.moments.calls_per_op": 2 * cells,
            "distfit.fit.calls_per_op": cells,
            "pricer_closed.ln_law.calls_per_op": cells,
        }
    return {
        "mc_engine.draw.calls_per_op": 2 * cells,
        "mc_engine.draw.normals_per_op": 2 * cells * n,
        "mc_engine.draw.unique_ratio": 1 / (2 * cells),
        "model.price.calls_per_op": 3 * cells,
        "model.price.elements_per_op": 3 * cells * n,
        "model.calibrate.calls_per_op": 3 * cells,
        "distfit.moments.calls_per_op": cells,
        "distfit.fit.calls_per_op": 0,
        "pricer_closed.ln_law.calls_per_op": cells,
    }


def traced_metrics(work, ops):
    t = tracer.Tracer(max_spans=10**6)
    t.install()
    try:
        for i in range(ops):
            out = t.run_op(i, work.prepare(i))
            assert work.check(i, out) is None
    finally:
        t.uninstall()
    return t.metrics()


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("name", sorted(TABLE))
def test_counts_match_table_on_full_grid(name, seed):
    m = traced_metrics(workloads.build(name, seed), ops=2 if name == "closed_form" else 1)
    for key, want in TABLE[name].items():
        assert m[key] == want, key


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("name", ["sweep_ref", "sweep_crn_delta"])
def test_counts_per_cell_on_tiny_grid(name, seed):
    grid = (99.0, 101.0) if name == "sweep_ref" else (98.0, 102.0)
    m = traced_metrics(workloads.build(name, seed, n=3000, grid=grid), ops=3)
    for key, want in tiny_table(name, len(grid), 3000).items():
        assert m[key] == want, key


@pytest.mark.parametrize("name", sorted(TABLE))
def test_self_shares_sum_to_one(name):
    m = traced_metrics(workloads.build(name, 5, n=3000, grid=(100.0,)), ops=3)
    shares = [m[f"{layer}.self_share"] for layer in tracer.LAYERS] + [m["unattributed.self_share"]]
    assert min(shares) >= 0.0
    assert sum(shares) == pytest.approx(1.0, abs=1e-12)


def test_uninstall_restores_every_binding():
    before = {(mod.__name__, k): v for mod in (harness, mc_engine, model, pricer_closed)
              for k, v in vars(mod).items() if callable(v)}
    t = tracer.Tracer(max_spans=10)
    t.install()
    assert mc_engine.model_price is not before[("mtgopt.mc_engine", "model_price")]
    assert harness.price_mc is not before[("mtgopt.harness", "price_mc")]
    t.uninstall()
    after = {(mod.__name__, k): v for mod in (harness, mc_engine, model, pricer_closed)
             for k, v in vars(mod).items() if callable(v)}
    assert after == before
    assert "calibrate" in model.ModelSpec.__dict__
    assert model.ModelSpec.calibrate.__func__.__module__ == "mtgopt.model"


def grid_points():
    for C in workloads.CURVATURES:
        for K in workloads.STRIKES:
            yield C, K, 100.0
    for C in workloads.LOW_CURVATURES:
        for P0 in workloads.SPOTS:
            yield C, 100.0, P0


def test_oracle_converged_far_below_se():
    for C, K, P0 in grid_points():
        mdl = workloads.oracle_model(C, P0)
        fine, se = oracle.call(mdl, K, workloads.N_DRAWS, panels=48)
        coarse, _ = oracle.call(mdl, K, workloads.N_DRAWS, panels=24)
        assert abs(fine - coarse) < 1e-6 * se
        fine, se = oracle.crn_delta(mdl, K, 1e-4, workloads.N_DRAWS, panels=48)
        coarse, _ = oracle.crn_delta(mdl, K, 1e-4, workloads.N_DRAWS, panels=24)
        assert abs(fine - coarse) < 1e-6 * se


@pytest.mark.parametrize("C,K", [(0.5, 97.0), (3.0, 103.0), (40.0, 100.0)])
def test_oracle_agrees_with_large_mc_and_ln_law(C, K):
    p = workloads.PARAMS
    spec = model.ModelSpec.calibrate(model.DurationParams(p["L"], p["U"], C, p["x0"]),
                                     model.MarketState(p["P0"], p["r0"]))
    dyn = model.RateDynamics(p["mu"], p["sigma"])
    c = model.OptionContract(K, p["T"], p["r_f"])
    n = 1_000_000
    mc = mc_engine.price_mc(spec, dyn, c, mc_engine.McConfig(n, 99))
    exact, se = oracle.call(workloads.oracle_model(C, p["P0"]), K, n)
    assert abs(mc.price - exact) < 4 * se
    assert mc.std_error == pytest.approx(se, rel=0.02)
    law = pricer_closed.ln_terminal_params(spec, dyn, p["T"])
    m1 = math.exp(law.mu_P + 0.5 * law.sigma_P**2)
    assert oracle.ln_mean_price(workloads.oracle_model(C, p["P0"])) == pytest.approx(m1, rel=1e-12)


def test_checks_reject_wrong_outputs():
    ref = workloads.build("sweep_ref", 6, grid=(100.0,))
    cells = ref.prepare(0)()
    assert ref.check(0, cells) is None
    _, se = ref.oracle.call(ref.curvature(0), 100.0, 100.0)
    cell = cells[0]
    off = [replace(cell, price_mc=cell.price_mc + 20 * se)]
    assert "SE from" in ref.check(0, off)
    assert "not finite" in ref.check(0, [replace(cell, price_ln=math.nan)])
    assert "outside" in ref.check(0, [replace(cell, price_sln=-0.1)])
    assert ref.check(0, [replace(cell, se_mc=None)]) is not None
    assert ref.check(1, cells) is not None  # op 1 runs another curvature

    crn = workloads.build("sweep_crn_delta", 6, grid=(100.0,))
    cell = crn.prepare(0)()[0]
    assert crn.check(0, [cell]) is None
    assert "outside" in crn.check(0, [replace(cell, price_ln=1.5)])

    cf = workloads.build("closed_form", 6)
    res, delta, gamma = cf.prepare(0)()
    assert cf.check(0, (res, delta, gamma)) is None
    assert "gamma" in cf.check(0, (res, delta, -gamma))
    assert "price" in cf.check(0, (replace(res, price=-1.0), delta, gamma))


def test_reruns_are_bit_identical_and_op_seeds_distinct():
    for name in ("sweep_crn_delta", "closed_form"):
        work = workloads.build(name, 7, n=3000, grid=(99.0, 101.0))
        assert work.fingerprint(work.prepare(0)()) == work.fingerprint(work.prepare(0)())
    seeds = {workloads.op_seed(s, i) for s in (1, 2) for i in range(10000)}
    assert len(seeds) == 20000


def test_percentile_falls_back_with_few_ops():
    times = [i / 1000 for i in range(1, 51)]
    assert run.percentile_ms(times, 90) == pytest.approx(1e3 * run.np.percentile(times, 80))
    times = [i / 1000 for i in range(1, 201)]
    assert run.percentile_ms(times, 90) == pytest.approx(1e3 * run.np.percentile(times, 90))


def test_trimmed_mean_drops_stalls_but_follows_a_speed_switch():
    assert hostref.trimmed_mean([1.0] * 9 + [50.0]) == 1.0
    assert hostref.trimmed_mean([1.0] * 10 + [2.0] * 10) == 1.5


def test_run_fails_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_known_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_listed_metric_with_its_unit(trace, kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "closed_form", "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in spec[kind]
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
