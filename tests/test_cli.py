"""CLI behavior: config/override plumbing, seed precedence, output shape,
exit codes, determinism."""
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cold_provider, provider_slots, unit_spot
from mtgopt import mc_engine, pricer_closed
from mtgopt.cli import main
from mtgopt.harness import BLOCK_LEAVES, BaseParams, SweepAxis, SweepSpec, materialize, run_sweep


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("MTGOPT_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_schema_leaves_are_base_params_fields():
    leaves = [leaf for block in BLOCK_LEAVES.values() for leaf in block]
    assert leaves == [f.name for f in fields(BaseParams)]
    assert len(set(leaves)) == len(leaves)


def test_defaults_exact_values(capsys):
    doc = run_json(capsys, "defaults")
    assert doc["contract"] == {"K": 100.0, "T": 0.25, "r_f": 0.0209}
    assert doc["dynamics"] == {"mu": 0.0, "sigma": 0.02}
    assert doc["market"] == {"P0": 100.0, "r0": 0.01}
    assert doc["model"] == {"C": None, "L": 1.0, "U": 9.0, "x0": 0.055}
    assert doc["mc"]["n"] == 70000
    assert doc["mc"]["bump"] == 0.0001
    assert isinstance(doc["mc"]["seed"], int)
    assert doc["schema_version"] == 1


def test_price_mc_matches_engine_anchor(capsys):
    doc = run_json(capsys, "price", "--method", "mc", "--set", "C=3", "--seed", "12345")
    assert doc["price"] == 2.11131351390709
    assert doc["std_error"] == 0.011783406227310807
    assert doc["n"] == 70000


def test_price_sln_same_seed_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "price", "--method", "sln", "--set", "C=3", "--seed", "99")
    _, out2, _ = run_cli(capsys, "price", "--method", "sln", "--set", "C=3", "--seed", "99")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["fit"]["orientation"] in (-1, 1)
    assert doc["fit"]["tau"] == pytest.approx(
        doc["fit"]["theta"] * doc["fit"]["orientation"], rel=1e-12
    )


def test_price_mc_worker_invariance(capsys):
    _, out1, _ = run_cli(capsys, "price", "--method", "mc", "--set", "C=3", "--seed", "5")
    _, out3, _ = run_cli(
        capsys, "price", "--method", "mc", "--set", "C=3", "--seed", "5", "--workers", "3"
    )
    assert out1 == out3


def test_price_ln_tiny_sigma_otm_is_zero(capsys):
    doc = run_json(
        capsys, "price", "--method", "ln", "--set", "C=3", "--set", "K=101",
        "--set", "sigma=1e-8",
    )
    assert doc["price"] == 0.0


def test_price_ln_regime_warning_on_stderr(capsys):
    code, out, err = run_cli(capsys, "price", "--method", "ln", "--set", "C=30")
    assert code == 0
    assert "skew" in err
    doc = json.loads(out)
    assert doc["price"] > 0.0


def test_price_ln_no_warning_in_regime(capsys):
    code, out, err = run_cli(capsys, "price", "--method", "ln", "--set", "C=3")
    assert code == 0
    assert err == ""


@pytest.mark.parametrize(
    "C,sigma,warns",
    [
        pytest.param("30", "0.02", True, id="30-True"),
        pytest.param("3", "0.02", False, id="3-False"),
        # a skew lost in roundoff gives no warning at any curvature
        ("3", "1e-300", False),
        ("3", "1e-15", False),
        ("3", "1e-12", False),
        ("3", "1e-9", False),
        ("3", "1e-6", False),
        ("30", "1e-9", False),
        ("30", "1e-6", True),
    ],
)
def test_greeks_ln_regime_warning_on_stderr(capsys, C, sigma, warns):
    at = ("--set", f"C={C}", "--set", f"sigma={sigma}")
    _, _, price_err = run_cli(capsys, "price", "--method", "ln", *at)
    code, out, err = run_cli(capsys, "greeks", "--method", "ln", *at)
    assert code == 0
    assert err == price_err
    assert ("skew" in err) == warns
    assert set(json.loads(out)) == {"delta", "gamma", "method", "sanity", "schema_version"}


def test_greeks_ln_vs_mc(capsys):
    ln = run_json(capsys, "greeks", "--method", "ln", "--set", "C=3")
    mc = run_json(capsys, "greeks", "--method", "mc", "--set", "C=3", "--seed", "12345")
    assert ln["gamma"] > 0.0
    assert 0.0 < ln["delta"] < ln["sanity"]["delta_upper_bound"]
    assert abs(mc["delta"] - ln["delta"]) / ln["delta"] < 0.03


def test_greeks_mc_reduces_no_moments(capsys, monkeypatch):
    # a delta prints no skew, so nothing takes the moments of its sample
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name.startswith("mtgopt") and hasattr(module, "central_moments"):
            monkeypatch.setattr(module, "central_moments", counted(module.central_moments))
    assert run_json(capsys, "greeks", "--method", "mc", "--set", "C=3", "--set", "n=2000")["delta"] > 0.0
    assert calls == []
    # the patch counts: a fit reduces its sample once
    run_json(capsys, "fit", "--set", "C=3", "--set", "n=2000")
    assert len(calls) == 1


@pytest.mark.parametrize("n", ["1", "2"])
def test_greeks_mc_below_three_draws_needs_no_third_moment(capsys, n):
    # a delta takes no moments; only a sweep's skew column needs them
    got = run_json(capsys, "greeks", "--method", "mc", "--set", "C=3", "--set", f"n={n}")
    assert got == {"bump": 0.0001, "delta": 0.0, "method": "mc", "schema_version": 1}


def test_sweep_delta_below_three_draws_exit_2(capsys, tmp_path):
    out = tmp_path / "a.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", "--set", "n=2", "--axis1", "P0=99,100", "--axis2", "C=3", "--engines", "mc",
        "--greek", "delta", "--crn-axis", "1", "--out", str(out),
    )
    assert (code, stdout) == (2, "")
    assert err == "error: need n >= 3 for a third moment, got n=2\n"
    assert not out.exists()


def test_fit_output_shape(capsys):
    doc = run_json(capsys, "fit", "--set", "C=0.5", "--seed", "12345")
    assert set(doc["moments"]) == {"mean", "m2", "m3", "n"}
    assert set(doc["fit"]) == {"theta", "orientation", "mu_X", "sigma_X", "tau"}
    assert doc["moments"]["n"] == 70000
    assert doc["skew"] > 0.0
    assert doc["fit"]["orientation"] == 1


def test_fit_shares_rate_sample_across_curvatures(capsys):
    # the rate draw depends only on the seed, so two fits at the same seed
    # see the same rates through different price curves
    lo = run_json(capsys, "fit", "--set", "C=0.5", "--seed", "4242", "--set", "n=2000")
    hi = run_json(capsys, "fit", "--set", "C=30", "--seed", "4242", "--set", "n=2000")
    assert lo["skew"] > 0.0 > hi["skew"]


def test_fit_degenerate_sample_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "fit", "--set", "C=3", "--set", "sigma=1e-300", "--set", "n=100"
    )
    assert code == 3
    assert "degenerate" in err


def test_qq_degenerate_sample_exit_3(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "qq", "--set", "C=3", "--set", "sigma=1e-300", "--set", "n=100",
        "--out", str(tmp_path / "qq.csv"),
    )
    assert code == 3
    assert "degenerate" in err


def test_config_file_and_set_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"C": 3.0},
                "contract": {"K": 102.0},
                "mc": {"n": 70000},
            }
        )
    )
    base = run_json(capsys, "price", "--method", "ln", "--config", str(cfg))
    direct = run_json(capsys, "price", "--method", "ln", "--set", "C=3", "--set", "K=102")
    assert base == direct
    overridden = run_json(
        capsys, "price", "--method", "ln", "--config", str(cfg), "--set", "K=100"
    )
    plain = run_json(capsys, "price", "--method", "ln", "--set", "C=3")
    assert overridden == plain


def test_seed_precedence(capsys, tmp_path, monkeypatch):
    def fit_out(*argv):
        return run_json(capsys, "fit", "--set", "C=3", "--set", "n=500", *argv)

    ref_111 = fit_out("--seed", "111")
    ref_222 = fit_out("--seed", "222")
    ref_333 = fit_out("--seed", "333")
    assert ref_111 != ref_222 != ref_333

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mc": {"seed": 111}}))

    # config beats env; flag beats config; env beats the built-in default
    monkeypatch.setenv("MTGOPT_SEED", "222")
    assert fit_out("--config", str(cfg)) == ref_111
    assert fit_out("--config", str(cfg), "--seed", "333") == ref_333
    assert fit_out() == ref_222


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "36893488147419103231"])
@pytest.mark.parametrize("route", ["flag", "set", "config", "env"])
def test_a_seed_outside_64_bits_exits_2_before_it_draws(capsys, tmp_path, monkeypatch, route, seed):
    # Philox keys on 64 bits: -1 and 2^65 - 1 would draw the stream of 2^64 - 1,
    # and 2^64 that of 0
    drawn = []
    monkeypatch.setattr(mc_engine, "_standard_normals", lambda *args: drawn.append(args))
    argv = ["price", "--method", "mc", "--set", "C=3", "--set", "n=2000"]
    if route == "flag":
        argv.append(f"--seed={seed}")
    elif route == "set":
        argv.append(f"--set=seed={seed}")
    elif route == "config":
        cfg = tmp_path / "seed.json"
        cfg.write_text(f'{{"mc": {{"seed": {seed}}}}}')
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("MTGOPT_SEED", seed)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: seed must be in [0, 2^64), got {seed}\n")
    assert drawn == []


def test_the_largest_seed_draws(capsys):
    top = run_json(capsys, "price", "--method", "mc", "--set", "C=3", "--set", "n=2000",
                   "--seed", "18446744073709551615")
    zero = run_json(capsys, "price", "--method", "mc", "--set", "C=3", "--set", "n=2000", "--seed", "0")
    assert top["price"] != zero["price"]


def test_invalid_inputs_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "price", "--set", "C=-1")
    assert code == 2 and "curvature" in err
    code, _, err = run_cli(capsys, "price")
    assert code == 2 and "C" in err
    code, _, err = run_cli(capsys, "price", "--set", "bogus=1")
    assert code == 2 and "bogus" in err
    code, _, err = run_cli(capsys, "price", "--set", "C")
    assert code == 2 and "leaf=value" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "price", "--config", str(bad))
    assert code == 2 and "JSON" in err
    wrongkey = tmp_path / "wrong.json"
    wrongkey.write_text(json.dumps({"model": {"slope": 1.0}}))
    code, _, err = run_cli(capsys, "price", "--config", str(wrongkey))
    assert code == 2 and "slope" in err
    wrongblock = tmp_path / "wrongblock.json"
    wrongblock.write_text(json.dumps({"settings": {}}))
    code, _, err = run_cli(capsys, "price", "--config", str(wrongblock))
    assert code == 2 and "settings" in err
    notint = tmp_path / "notint.json"
    notint.write_text(json.dumps({"mc": {"n": 1000.5}}))
    code, _, err = run_cli(capsys, "price", "--config", str(notint))
    assert code == 2 and "integer" in err
    notint.write_text('{"mc": {"seed": 1e400}}')
    code, _, err = run_cli(capsys, "price", "--config", str(notint))
    assert code == 2 and "integer" in err
    # every command validates the whole bundle, MC leaves included
    code, _, err = run_cli(capsys, "price", "--method", "ln", "--set", "C=3", "--set", "n=0")
    assert code == 2 and err == "error: sample count n must be >= 1, got 0\n"
    code, _, err = run_cli(capsys, "price", "--method", "ln", "--set", "C=3", "--set", "bump=0")
    assert code == 2 and err == "error: bump must be > 0, got 0.0\n"
    # an MC price needs two draws for its standard error
    code, out, err = run_cli(capsys, "price", "--method", "mc", "--set", "C=3", "--set", "n=1")
    assert (code, out) == (2, "") and "n=1" in err


@pytest.mark.parametrize("C", ["1e-06", "0.5", "3", "30"])
def test_greeks_mc_takes_any_positive_bump(capsys, C):
    # the delta is read off one sample of P/P0, with no difference of two
    # rounded legs, so a bump far below eps P0 is no delta of roundoff: at
    # n = 2000 no path lies between the legs' strikes, and the delta is the
    # default bump's; a bump of 1e300 is the secant over it, df E[P/P0]
    def delta(*leaves):
        argv = ("greeks", "--method", "mc", "--set", f"C={C}", "--set", "n=2000")
        return run_json(capsys, *argv, *(f"--set={leaf}" for leaf in leaves))["delta"]

    default = delta()
    for bump in ("1e-14", "1e-13", "1e-08"):
        assert abs(delta(f"bump={bump}") - default) < 1e-6, bump
    spec, dyn, c, cfg = materialize(BaseParams(C=float(C), n=2000))
    f = mc_engine.simulate_terminal_prices(unit_spot(spec), dyn, c.T, cfg)
    up, base = (c.df * float(np.mean(np.maximum(s * f - c.K, 0.0))) for s in (100.0 + 1e300, 100.0))
    assert delta("bump=1e300") == pytest.approx((up - base) / 1e300, rel=1e-12)


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ("price", "--method", "mc"),
        ("price", "--method", "sln"),
        ("greeks", "--method", "mc"),
        ("fit",),
        ("qq", "--out", "qq.csv"),
        ("sweep", "--axis1", "K=99,101", "--axis2", "C=3", "--out", "sweep.csv"),
    ],
)
def test_workers_below_one_exit_2_before_drawing(capsys, tmp_path, monkeypatch, argv, workers):
    def no_draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr("mtgopt.mc_engine._standard_normals", no_draw)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--set", "C=3", "--set", "n=1000", "--workers", workers)
    assert (code, out, err) == (2, "", f"error: workers must be >= 1, got {workers}\n")
    assert list(tmp_path.iterdir()) == []


def test_in_process_commands_keep_no_sample_between_calls(capsys):
    # every command releases the thread's provider when it ends: twenty MC
    # prices on distinct seeds hold one call's slots, not twenty kept samples
    cold_provider()
    at = ("price", "--method", "mc", "--set", "C=3", "--set", "n=2000")
    run_json(capsys, *at, "--seed", "1")
    draws = mc_engine.thread_draws()
    one_call = provider_slots(draws)
    for seed in range(2, 21):
        run_json(capsys, *at, "--seed", str(seed))
    assert mc_engine.thread_draws() is draws
    assert (provider_slots(draws), draws._kept, draws._held) == (one_call, {}, 0)


def test_a_warm_fit_allocates_no_array_of_n(capsys):
    # fit is one row of the skew table: it maps and reduces in the provider's
    # work slots, where its own draw, map and moments took about three new
    # arrays of n
    at = ("fit", "--set", "C=3", "--set", "n=70000")
    first = run_json(capsys, *at)
    tracemalloc.start()
    try:
        again = run_json(capsys, *at)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70000 * 8, peak / (70000 * 8)
    assert again == first


def test_a_warm_qq_maps_and_reduces_in_the_provider_s_work_slots(capsys, tmp_path):
    # qq draws, maps and reduces in three work slots, where a new array of
    # prices and the moments' temporaries took about three arrays of n; the
    # copy that np.quantile sorts is what remains
    out = tmp_path / "qq.csv"
    at = ("qq", "--set", "C=3", "--set", "n=70000", "--out", str(out))
    cold_provider()
    first = run_cli(capsys, *at), out.read_bytes()
    tracemalloc.start()
    try:
        again = run_cli(capsys, *at), out.read_bytes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 70000 * 8, peak / (70000 * 8)
    assert again == first and first[0][0] == 0


# 10**17 floats take 800 PB, past any 57-bit address space, so allocating
# them fails whatever the overcommit setting; 10**20 is past any array numpy
# can describe
HUGE, PAST_ANY_ARRAY = 10**17, 10**20
N_PAST = "sample count n must be <= {}, got {}"
QUANTILES_PAST = "quantile count must be 2 to {}, got {}"
AXIS_PAST = "axis needs 1 to {} points, got count={}"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("price", "--method", "mc", "--set", "n={}"), N_PAST),
        (("greeks", "--method", "mc", "--set", "n={}"), N_PAST),
        (("fit", "--set", "n={}"), N_PAST),
        (("qq", "--set", "n={}", "--out", "qq.csv"), N_PAST),
        (("sweep", "--axis1", "K=99,101", "--axis2", "C=3", "--set", "n={}", "--out", "s.csv"), N_PAST),
        (("qq", "--set", "n=100", "--quantiles", "{}", "--out", "qq.csv"), QUANTILES_PAST),
        (("sweep", "--axis1", "K=99:101:{}", "--axis2", "C=3", "--out", "s.csv"), AXIS_PAST),
    ],
    ids=["price-mc", "greeks-mc", "fit", "qq", "sweep", "qq-quantiles", "sweep-axis-count"],
)
def test_a_count_too_large_to_allocate_exits_3_and_past_any_array_exits_2(
    capsys, tmp_path, monkeypatch, argv, message
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *(a.format(HUGE) for a in argv), "--set", "C=3")
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot allocate: ") and err.count("\n") == 1, err
    code, out, err = run_cli(capsys, *(a.format(PAST_ANY_ARRAY) for a in argv), "--set", "C=3")
    want = "error: " + message.format(mc_engine.MAX_FLOATS, PAST_ANY_ARRAY) + "\n"
    assert (code, out, err) == (2, "", want)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "config,argv,env,needle",
    [
        ("[1, 2]", (), None, "config root must be a JSON object"),
        ('{"model": 3}', (), None, "config block 'model' must be an object"),
        ('{"contract": {"K": null}}', (), None, "K must be a number, got null"),
        ('{"contract": {"K": true}}', (), None, "K must be a number, got True"),
        (None, ("--set", "K=abc"), None, "cannot parse K='abc' as a number"),
        (None, (), "abc", "MTGOPT_SEED must be an integer, got 'abc'"),
        (None, ("--axis1", "K"), None, "axis must be NAME=v1,v2,... or NAME=start:stop:count"),
        (None, ("--axis1", "K=1:2"), None, "linear axis needs start:stop:count"),
        (None, ("--axis1", "K=1:2:x"), None, "cannot parse axis 'K=1:2:x'"),
        (None, ("--axis1", "K=1,b"), None, "cannot parse axis values in 'K=1,b'"),
    ],
)
def test_config_errors_exit_2(capsys, tmp_path, monkeypatch, config, argv, env, needle):
    args = ["sweep", "--set", "C=3", "--out", str(tmp_path / "out.csv"), "--axis2", "P0=100"]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        args += ["--config", str(tmp_path / "cfg.json")]
    if env is not None:
        monkeypatch.setenv("MTGOPT_SEED", env)
    if "--axis1" not in argv:
        args += ["--axis1", "K=99,101"]
    code, out, err = run_cli(capsys, *args, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {needle}") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


FLOAT_LEAVES = ("L", "U", "C", "x0", "P0", "r0", "mu", "sigma", "K", "T", "r_f", "bump")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("leaf", FLOAT_LEAVES)
def test_non_finite_input_exit_2_names_leaf(capsys, leaf, value):
    code, out, err = run_cli(
        capsys, "price", "--method", "mc", "--set", "C=3", "--set", "n=100",
        "--set", f"{leaf}={value}",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {leaf} must be finite, got {float(value)}\n"


def test_non_finite_result_exit_3(capsys, tmp_path):
    # finite inputs whose results overflow: one error line, no numpy warning
    csv = str(tmp_path / "out.csv")
    at = ("--set", "C=3")
    cases = [
        ("sweep", "--axis1", "K=99,101", "--axis2", "C=3", "--engines", "ln",
         "--set", "U=1e300", "--out", csv),
    ]
    for cmd in (("price", "--method", "ln"), ("greeks", "--method", "ln")):
        cases.append(cmd + at + ("--set", "sigma=1e150"))
        # the matched lognormal itself overflows
        cases.append(cmd + at + ("--set", "L=1e300"))
        cases.append(cmd + at + ("--set", "L=1e200"))
        cases.append(cmd + ("--set", "C=1e300"))
    for extreme in ("sigma=1e200", "r0=1e308"):
        sampled = at + ("--set", "n=100", "--set", extreme)
        cases += [
            ("price", "--method", "mc") + sampled,
            ("fit",) + sampled,
            ("qq", "--out", csv) + sampled,
            ("sweep", "--axis1", "K=99,101", "--axis2", "C=3", "--out", csv) + sampled,
        ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: non-finite result: ") and err.count("\n") == 1, argv
        assert not (tmp_path / "out.csv").exists()


def test_overflow_messages_name_their_parameters(capsys):
    code, out, err = run_cli(
        capsys, "price", "--method", "mc", "--set", "C=3", "--set", "n=100", "--set", "r0=1e308"
    )
    assert (code, out) == (3, "")
    assert err == "error: non-finite result: C (r0 - x0) overflows at C=3.0, r0=1e+308, x0=0.055\n"
    code, out, err = run_cli(capsys, "price", "--method", "ln", "--set", "C=3", "--set", "sigma=1e150")
    assert (code, out) == (3, "")
    assert err == (
        "error: non-finite result: matched lognormal overflows at L=1.0, U=9.0, C=3.0, mu=0.0, "
        "sigma=1e+150, T=0.25\n"
    )
    # log M1 or sigma_X^2 past double range with no OverflowError on the way
    # (inf at mu = 1e308 and at a tiny U, nan at huge L and -mu): the same text
    for argv, at in [
        (("price", "--set", "C=10", "--set", "mu=1e308"), "L=1.0, U=9.0, C=10.0, mu=1e+308"),
        (("greeks", "--set", "C=10", "--set", "mu=1e308"), "L=1.0, U=9.0, C=10.0, mu=1e+308"),
        (("price", "--set", "C=3", "--set", "U=5.378201806232963e-195"),
         "L=1.0, U=5.378201806232963e-195, C=3.0, mu=0.0"),
        (("price", "--set", "C=3", "--set", "mu=-1.504390154324462e+187", "--set", "L=1.1332676081387775e+248"),
         "L=1.1332676081387775e+248, U=9.0, C=3.0, mu=-1.504390154324462e+187"),
    ]:
        code, out, err = run_cli(capsys, argv[0], "--method", "ln", *argv[1:])
        assert (code, out, err) == (
            3, "", f"error: non-finite result: matched lognormal overflows at {at}, sigma=0.02, T=0.25\n"
        ), argv


@pytest.mark.parametrize("argv, leaf", [
    (("price", "--method", "ln", "--set", "L=1e8"), "L=100000000.0"),
    (("price", "--method", "sln", "--set", "L=1e8"), "L=100000000.0"),
    (("greeks", "--method", "ln", "--set", "L=1e8"), "L=100000000.0"),
    (("price", "--method", "ln", "--set", "sigma=1e200"), "sigma=1e+200"),
    (("price", "--method", "sln", "--set", "sigma=1e200"), "sigma=1e+200"),
], ids=["ln-L", "sln-L", "greeks-L", "ln-sigma", "sln-sigma"])
def test_closed_form_overflows_name_the_leaves_of_the_law(capsys, argv, leaf):
    # the matched law and the quadrature moments name every leaf that scales
    # the law of P/P0, the one at fault among them
    code, out, err = run_cli(capsys, *argv, "--set", "C=3")
    assert (code, out) == (3, "")
    assert err.startswith("error: non-finite result: ") and err.count("\n") == 1, err
    assert leaf in err and all(name in err for name in ("L=", "U=", "C=", "mu=", "sigma=", "T=")), err


@pytest.mark.parametrize("argv, err", [
    (("price", "--method", "mc", "--set", "n=20000", "--set", "P0=1.7e308", "--set", "K=1.7e308"),
     "price map overflows at P0=1.7e+308, L=1.0, U=9.0, C=3.0, mu=0.0, sigma=0.02, T=0.25"),
    (("fit", "--set", "L=1e8"),
     "price map overflows at P0=100.0, L=100000000.0, U=9.0, C=3.0, mu=0.0, sigma=0.02, T=0.25"),
    (("greeks", "--method", "mc", "--set", "L=1e8"),
     "sample of P/P0 overflows at L=100000000.0, U=9.0, C=3.0, mu=0.0, sigma=0.02, T=0.25"),
    *(((*cmd, "--set", "sigma=1.7e308"),
       "rate move overflows at L=1.0, U=9.0, C=3.0, mu=0.0, sigma=1.7e+308, T=0.25")
      for cmd in (("price", "--method", "mc"), ("greeks", "--method", "mc"), ("fit",), ("qq",))),
], ids=["price-mc-P0", "fit-L", "greeks-mc-L", "price-mc-sigma", "greeks-mc-sigma", "fit-sigma", "qq-sigma"])
def test_a_sample_map_that_overflows_names_the_leaves_of_its_law(capsys, tmp_path, argv, err):
    # "overflow encountered in exp", and in the rate move's "multiply", named
    # no parameter
    out = ("--out", str(tmp_path / "out.csv")) if argv[0] == "qq" else ()
    assert run_cli(capsys, *argv, *out, "--set", "C=3") == (3, "", f"error: non-finite result: {err}\n")
    assert not (tmp_path / "out.csv").exists()


MU_T = ("--set", "mu=-1.3e89", "--set", "T=1.1e257")
SIGMA_T = ("--set", "sigma=1e200", "--set", "T=1e250")


@pytest.mark.parametrize("argv, at", [
    (("greeks", "--method", "mc", *MU_T), "mu=-1.3e+89, sigma=0.02, T=1.1e+257"),
    (("greeks", "--method", "mc", *SIGMA_T), "mu=0.0, sigma=1e+200, T=1e+250"),
    (("price", "--method", "mc", *SIGMA_T), "mu=0.0, sigma=1e+200, T=1e+250"),
    (("price", "--method", "ln", *MU_T), "mu=-1.3e+89, sigma=0.02, T=1.1e+257"),
    (("price", "--method", "sln", *MU_T), "mu=-1.3e+89, sigma=0.02, T=1.1e+257"),
], ids=["greeks-mc-mu", "greeks-mc-sigma", "price-mc-sigma", "price-ln-mu", "price-sln-mu"])
def test_a_rate_law_that_overflows_names_its_leaves(capsys, argv, at):
    # a delta of NaN, "invalid value encountered in multiply" and the matched
    # law's or the quadrature's message came from a rate law whose mean or SD
    # was already infinite
    assert run_cli(capsys, *argv, "--set", "C=3") == (
        3, "", f"error: non-finite result: terminal rate law overflows at {at}\n"
    )


LAW_AT_C3 = "L=1.0, U=9.0, C=3.0, mu=0.0, sigma=0.02, T=0.25"
HUGE_SPOT = ("--set", "P0=1e120", "--set", "K=1e120")
FLAT = ("--set", "sigma=1e-160", "--set", "n=200")
SWEEP_K = ("sweep", "--axis1", "K=99,100", "--axis2", "C=3")


@pytest.mark.parametrize("argv, err", [
    (("fit", *HUGE_SPOT), f"non-finite result: a moment of P overflows at P0=1e+120, {LAW_AT_C3}"),
    (("qq", *HUGE_SPOT), f"non-finite result: a moment of P overflows at P0=1e+120, {LAW_AT_C3}"),
    ((*SWEEP_K, *HUGE_SPOT), f"non-finite result: a moment of P overflows at P0=1e+120, {LAW_AT_C3}"),
    (("fit", "--set", "P0=1e300", "--set", "K=1e300"),
     f"non-finite result: a moment of P overflows at P0=1e+300, {LAW_AT_C3}"),
    (("fit", *FLAT),
     "degenerate sample: cannot fit a constant sample (m2 = 0) at P0=100.0, sigma=1e-160, T=0.25, n=200"),
    (("qq", *FLAT),
     "degenerate sample: cannot fit a constant sample (m2 = 0) at P0=100.0, sigma=1e-160, T=0.25, n=200"),
    ((*SWEEP_K, "--engines", "mc", "--set", "sigma=1e-200", "--set", "n=200"),
     "degenerate sample: skewness undefined: sample has zero variance at P0=100.0, sigma=1e-200, T=0.25, n=200"),
    (("sweep", "--axis1", "P0=99,100", "--axis2", "C=3", "--engines", "mc", "--greek", "delta", "--crn-axis",
      "1", "--set", "sigma=1e-200", "--set", "n=200"),
     "degenerate sample: skewness undefined: sample has zero variance at sigma=1e-200, T=0.25, n=200"),
], ids=["fit-P0", "qq-P0", "sweep-P0", "fit-P0-1e300", "fit-sigma", "qq-sigma", "sweep-sigma", "delta-sweep-sigma"])
def test_a_sample_s_moments_that_fail_name_its_leaves(capsys, tmp_path, argv, err):
    # "overflow encountered in multiply", "cannot fit a constant sample
    # (m2 = 0)" and "sample has zero variance" named no parameter
    out = ("--out", str(tmp_path / "out.csv")) if argv[0] in ("qq", "sweep") else ()
    assert run_cli(capsys, *argv, *out, "--set", "C=3") == (3, "", f"error: {err}\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [("price", "--method", "sln"), (*SWEEP_K, "--engines", "sln")],
                         ids=["price-sln", "sweep-sln"])
def test_an_sln_fit_of_moments_with_no_spread_names_the_leaves_of_their_law(capsys, tmp_path, argv):
    # at mu = 2e177 every quadrature node prices P/P0 at 0.0, and the fit's
    # "cannot fit a constant sample (m2 = 0)" named no parameter
    out = ("--out", str(tmp_path / "out.csv")) if argv[0] == "sweep" else ()
    assert run_cli(capsys, *argv, *out, "--set", "C=3", "--set", "mu=2e177") == (
        3, "", "error: degenerate sample: cannot fit a constant sample (m2 = 0) at "
        "L=1.0, U=9.0, C=3.0, mu=2e+177, sigma=0.02, T=0.25\n"
    )
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("spot", ["1e-300", "1e-200", "1e300"])
def test_mc_price_and_standard_error_at_an_extreme_spot_scale_with_it(capsys, spot):
    # the SE underflowed to 0.0 at P0 = K = 1e-200 and overflowed at 1e300
    at = ("price", "--method", "mc", "--set", "C=3", "--set", "n=20000")
    one = run_json(capsys, *at)
    doc = run_json(capsys, *at, "--set", f"P0={spot}", "--set", f"K={spot}")
    scale = float(spot) / 100.0
    assert doc["price"] / scale == pytest.approx(one["price"], rel=1e-10)
    assert doc["std_error"] / scale == pytest.approx(one["std_error"], rel=1e-10)


def test_mc_standard_error_at_a_subnormal_spot_is_its_subnormal_multiple(capsys):
    # the payoffs' scale exponent is clamped so that the scaled discount
    # factor stays finite; P and the SE keep only subnormal precision
    at = ("price", "--method", "mc", "--set", "C=3", "--set", "n=20000")
    one = run_json(capsys, *at)
    doc = run_json(capsys, *at, "--set", "P0=1e-315", "--set", "K=1e-315")
    assert doc["std_error"] / 1e-317 == pytest.approx(one["std_error"], rel=1e-4)


@pytest.mark.parametrize("r_f, T", [("-3000", "0.25"), ("-1", "1e308")])
def test_discount_factor_that_overflows_exits_2_naming_r_f_and_t(capsys, tmp_path, r_f, T):
    # e^(-r_f T) past double range: one line naming both leaves, before anything is drawn
    at = ("--set", "C=3", "--set", "n=200", "--set", f"r_f={r_f}", "--set", f"T={T}")
    want = f"error: discount e^(-r_f T) must be finite, got r_f={float(r_f)}, T={float(T)}\n"
    for argv in (
        ("price", "--method", "ln"), ("price", "--method", "mc"), ("price", "--method", "sln"),
        ("greeks", "--method", "ln"), ("greeks", "--method", "mc"),
        ("sweep", "--axis1", "K=99,101", "--axis2", "C=3", "--out", str(tmp_path / "s.csv")),
    ):
        assert run_cli(capsys, *argv, *at) == (2, "", want), argv
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "leaves",
    [("C=0.01", "sigma=3", "T=10"), ("C=3", "mu=-3000"), ("C=3", "U=1e150")],
    ids=["wide-law", "drift", "duration-range"],
)
def test_ln_mean_that_overflows_exits_3_naming_its_parameters(capsys, leaves):
    # the matched mean M1/P0 = e^(mu + sigma_P^2 / 2) past double range
    argv = [arg for leaf in leaves for arg in ("--set", leaf)]
    bundle = dict(L="1.0", U="9.0", C="3", mu="0.0", sigma="0.02", T="0.25")
    bundle.update(leaf.split("=") for leaf in leaves)
    L, U, C, mu, sigma, T = (float(bundle[k]) for k in ("L", "U", "C", "mu", "sigma", "T"))
    want = (f"error: non-finite result: matched lognormal mean overflows at L={L}, U={U}, C={C}, "
            f"mu={mu}, sigma={sigma}, T={T}\n")
    for command in ("price", "greeks"):
        assert run_cli(capsys, command, "--method", "ln", *argv) == (3, "", want), command


@pytest.mark.parametrize(
    "method,leaf",
    [(("--method", "ln"), "U"), (("--method", "mc", "--set", "n=100"), "U"), (("--method", "mc"), "L")],
)
def test_duration_scale_that_overflows_exits_2(capsys, method, leaf):
    # L/C and U/C scale the price map's two terms
    code, out, err = run_cli(capsys, "price", *method, "--set", "C=1e-100", "--set", f"{leaf}=1e250")
    assert (code, out, err) == (2, "", f"error: {leaf}/C must be finite, got {leaf}=1e+250, C=1e-100\n")


def test_curvature_below_the_floor_exits_2(capsys):
    for C in ("1e-101", "1e-300"):
        code, out, err = run_cli(capsys, "price", "--method", "ln", "--set", f"C={C}")
        assert (code, out) == (2, "")
        assert err == f"error: curvature C must be >= 1e-100, got {float(C)}\n"


@pytest.mark.parametrize("r0", ["1e14", "1e16", "1e300"])
def test_mc_at_a_huge_rate_is_the_saturated_constant_duration_price(capsys, r0):
    # the engines see only the move r_T - r0, so no draw is rounded at the ulp
    # of r0 (2 at 1e16, where the price was 4.2e-14 with a 2.8e-31 error bar);
    # q saturates at 1 there, as at a coupon rate far below r0
    exact = 4.2312076392  # constant-duration D = L + U = 10: Black-Scholes at sigma_P = 0.1
    at = ("--set", "C=3", "--set", "n=2000")
    doc = run_json(capsys, "price", "--method", "mc", *at, "--set", f"r0={r0}")
    assert abs(doc["price"] - exact) <= 4.0 * doc["std_error"]
    assert doc == run_json(capsys, "price", "--method", "mc", *at, "--set", "x0=-1e8")
    greeks = ("greeks", "--method", "mc", "--set", "C=3")
    assert run_json(capsys, *greeks, "--set", f"r0={r0}") == run_json(capsys, *greeks, "--set", "x0=-1e8")


def test_ln_at_a_vanishing_expiry_is_at_the_money(capsys):
    # M1/P0 and K/P0 round to 1 at T = 1e-300: delta 1/2, and a price below
    # any double; the absolute M1 once gave delta 1.0000000000000004 > 1
    at = ("--method", "ln", "--set", "C=3", "--set", "T=1e-300")
    assert run_json(capsys, "greeks", *at)["delta"] == 0.5
    assert run_json(capsys, "price", *at)["price"] == 0.0


def test_huge_curvature_with_tiny_volatility_is_finite(capsys):
    # (a2 s)^2 is formed from a2 s, so a huge a2 times a vanishing s^2 is no inf * 0
    doc = run_json(capsys, "price", "--method", "ln", "--set", "C=1e300", "--set", "sigma=1e-300")
    assert all(math.isfinite(doc[k]) for k in ("price", "mu_P", "sigma_P"))


def test_sweep_validates_every_cell_before_it_draws(capsys, tmp_path, monkeypatch):
    # C = 3 is valid, C = 1e10 overflows C (r0 - x0): nothing may be drawn
    def no_draw(*args):
        raise AssertionError("drew before every cell was validated")

    monkeypatch.setattr(mc_engine, "_standard_normals", no_draw)
    code, out, err = run_cli(
        capsys, "sweep", "--axis1", "K=99,101", "--axis2", "C=3,1e10", "--set", "x0=-1e300",
        "--out", str(tmp_path / "s.csv"),
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: non-finite result: C (r0 - x0) overflows at C=10000000000.0, r0=0.01, x0=-1e+300\n"
    )
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "axes,leaf",
    [(("K=99,101,inf", "C=0.5,3"), "K"), (("P0=95,96,inf", "C=3", "--greek", "delta", "--crn-axis", "1"), "P0")],
    ids=["price", "crn-delta"],
)
def test_an_invalid_leaf_in_the_last_cell_exits_2_before_anything_is_drawn(capsys, tmp_path, monkeypatch,
                                                                           axes, leaf):
    # each distinct block is built once per sweep, still all before any draw
    def no_draw(*args):
        raise AssertionError("drew before every cell was validated")

    monkeypatch.setattr(mc_engine, "_standard_normals", no_draw)
    axis1, axis2, *rest = axes
    code, out, err = run_cli(
        capsys, "sweep", "--axis1", axis1, "--axis2", axis2, *rest, "--out", str(tmp_path / "s.csv")
    )
    assert (code, out, err) == (2, "", f"error: {leaf} must be finite, got inf\n")
    assert not (tmp_path / "s.csv").exists()


def test_qq_checks_the_quantile_count_before_it_draws(capsys, tmp_path, monkeypatch):
    # sigma = 1e-300 gives a constant sample, which would exit 3 if drawn
    def no_draw(*args):
        raise AssertionError("drew before the quantile count was checked")

    monkeypatch.setattr(mc_engine, "_standard_normals", no_draw)
    code, out, err = run_cli(
        capsys, "qq", "--quantiles", "1", "--set", "C=3", "--set", "sigma=1e-300", "--set", "n=100",
        "--out", str(tmp_path / "qq.csv"),
    )
    want = f"error: quantile count must be 2 to {mc_engine.MAX_FLOATS}, got 1\n"
    assert (code, out, err) == (2, "", want)
    assert list(tmp_path.iterdir()) == []


def test_io_failures_exit_4(capsys, tmp_path):
    code, _, err = run_cli(capsys, "price", "--config", str(tmp_path / "missing.json"))
    assert code == 4
    code, _, err = run_cli(
        capsys, "sweep", "--axis1", "K=99,101", "--axis2", "C=3", "--set", "n=200",
        "--out", str(tmp_path / "nodir" / "x.csv"),
    )
    assert code == 4


def test_sweep_writes_csv_and_summary(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        capsys, "sweep", "--axis1", "K=99,100,101", "--axis2", "C=0.5,3",
        "--seed", "7", "--set", "n=2000", "--out", str(out),
    )
    assert code == 0
    assert stdout.startswith("cells=6 max_abs_rel_diff_pct=")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("axis1_name,")
    assert len(lines) == 7


def test_sweep_rerun_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sweep", "--axis1", "K=99,101", "--axis2", "C=3", "--seed", "7",
            "--set", "n=2000")
    code1, out1, _ = run_cli(capsys, *args, "--out", str(a))
    code2, out2, _ = run_cli(capsys, *args, "--out", str(b), "--workers", "3")
    assert code1 == code2 == 0
    assert out1.replace(str(a), "") == out2.replace(str(b), "")
    assert a.read_bytes() == b.read_bytes()


def test_sweep_mc_only_blank_rel_diffs(capsys, tmp_path):
    out = tmp_path / "mc.csv"
    code, stdout, _ = run_cli(
        capsys, "sweep", "--axis1", "K=99,101", "--axis2", "C=3", "--seed", "7",
        "--set", "n=500", "--engines", "mc", "--out", str(out),
    )
    assert code == 0
    assert "max_abs_rel_diff_pct=n/a" in stdout
    for line in out.read_text().splitlines()[1:]:
        cols = line.split(",")
        assert cols[6] == cols[7] == cols[8] == cols[9] == ""


def test_sweep_delta_without_ln_or_mc_exit_2(capsys, tmp_path):
    # SLN has no delta: the grid would be all blanks
    out = tmp_path / "a.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", "--axis1", "K=99,101", "--axis2", "C=3", "--engines", "sln",
        "--greek", "delta", "--set", "n=1000", "--out", str(out),
    )
    assert (code, stdout) == (2, "")
    assert err == "error: greek 'delta' needs engine LN or MC, got ('SLN',)\n"
    assert not out.exists()


def test_sweep_linear_axis_grammar(capsys, tmp_path):
    out = tmp_path / "lin.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--axis1", "K=97:103:13", "--axis2", "C=3", "--seed", "3",
        "--set", "n=200", "--engines", "ln", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 14
    assert lines[1].split(",")[1] == "97"
    assert lines[7].split(",")[1] == "100"
    assert lines[13].split(",")[1] == "103"
    code, _, err = run_cli(
        capsys, "sweep", "--axis1", "K=97:103", "--axis2", "C=3",
        "--out", str(out),
    )
    assert code == 2 and "start:stop:count" in err
    # one point is the start, so a stop elsewhere would be dropped
    code, _, err = run_cli(
        capsys, "sweep", "--axis1", "K=99:101:1", "--axis2", "C=3", "--set", "n=100",
        "--out", str(out),
    )
    assert (code, err) == (2, "error: axis K has one point, so it needs start = stop, got 99.0:101.0\n")
    code, _, err = run_cli(
        capsys, "sweep", "--axis1", "K=100:100:1", "--axis2", "C=3", "--set", "n=100",
        "--engines", "ln", "--out", str(out),
    )
    assert code == 0, err
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[1] == "100"


@pytest.mark.parametrize(
    "axis, message",
    [
        # an infinite bound or an overflowing stop - start never reaches np.linspace
        ("K=1e400:1e401:2", "axis K needs a finite start, stop and stop - start, got inf:inf"),
        ("K=1:1e400:2", "axis K needs a finite start, stop and stop - start, got 1.0:inf"),
        (
            "K=-1e308:1e308:3",
            "axis K needs a finite start, stop and stop - start, got -1e+308:1e+308",
        ),
        ("K=99,1e400", "K must be finite, got inf"),
        ("K=nan:1:2", "K must be finite, got nan"),
        ("K=1:nan:2", "K must be finite, got nan"),
    ],
)
def test_sweep_axis_non_finite_exit_2_names_axis(capsys, tmp_path, axis, message):
    out = tmp_path / "axis.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", "--axis1", axis, "--axis2", "C=3", "--engines", "ln", "--out", str(out),
    )
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_qq_writes_csv(capsys, tmp_path):
    out = tmp_path / "qq.csv"
    code, stdout, _ = run_cli(
        capsys, "qq", "--set", "C=3", "--seed", "12345", "--quantiles", "19",
        "--out", str(out),
    )
    assert code == 0
    assert stdout.startswith("quantiles=19 max_abs_gap=")
    lines = out.read_text().splitlines()
    assert lines[0] == "p,empirical_q,fitted_q"
    assert len(lines) == 20


def test_cli_entrypoint_subprocess_byte_identical():
    cmd = [
        sys.executable, "-m", "mtgopt.cli", "price", "--method", "sln",
        "--set", "C=3", "--seed", "12345",
    ]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout.endswith(b"\n")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _strict_json(text):
    def reject(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


EXTREME_VALUES = ("1e-300", "-1e-300", "1e-150", "1e-110", "1e150", "1e300", "-1e300")
EXTREME_COMMANDS = {
    "price-mc": ("price", "--method", "mc"),
    "price-sln": ("price", "--method", "sln"),
    "price-ln": ("price", "--method", "ln"),
    "greeks-ln": ("greeks", "--method", "ln"),
    "greeks-mc": ("greeks", "--method", "mc"),
    "fit": ("fit",),
    "qq": ("qq", "--quantiles", "9"),
    "sweep": ("sweep",),
}


@pytest.mark.parametrize("command", sorted(EXTREME_COMMANDS))
def test_extreme_finite_inputs_exit_cleanly(capsys, tmp_path, command):
    # every float leaf at tiny and huge magnitudes: exit 0 with strict JSON or
    # a finite CSV, or exit 2/3 with one stderr line; no exception escapes main
    csv = tmp_path / "out.csv"
    for leaf in FLOAT_LEAVES:
        argv = EXTREME_COMMANDS[command]
        if command in ("qq", "sweep"):
            argv += ("--out", str(csv))
        if command == "sweep":
            # axes that leave the leaf under test to the base bundle
            argv += ("--axis1", "P0=99,101" if leaf == "K" else "K=99,101",
                     "--axis2", "P0=100" if leaf == "sigma" else "sigma=0.02")
        for value in EXTREME_VALUES:
            case = argv + ("--set", "C=3", "--set", "n=200", "--set", f"{leaf}={value}")
            code, out, err = run_cli(capsys, *case)
            assert code in (0, 2, 3), (case, err)
            assert err.count("\n") <= 1, (case, err)
            # an overflow names the parameters that caused it
            assert "math range error" not in err, (case, err)
            if code != 0:
                assert out == "" and err.startswith("error: "), (case, err)
                continue
            if command in ("qq", "sweep"):
                rows = csv.read_text(encoding="utf-8").splitlines()[1:]
                assert all(math.isfinite(float(v)) for r in rows for v in r.split(",") if v
                           and v not in ("K", "P0", "sigma")), case
                csv.unlink()
            else:
                _strict_json(out)


NAMES_A_LEAF = re.compile(r"\b(?:" + "|".join(FLOAT_LEAVES) + r")=[-+0-9]")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(("price", "greeks")),
       st.dictionaries(st.sampled_from(FLOAT_LEAVES), st.tuples(st.sampled_from((1.0, -1.0)), st.floats(-300.0, 300.0)),
                       min_size=1, max_size=3))
def test_ln_commands_keep_the_cli_contract_at_any_magnitude(command, leaves):
    # 1-3 leaves at log-uniform magnitudes sign * 10^e, e in [-300, 300], at
    # C = 3: exit 0 with strict JSON, or exit 2, or exit 3 naming a leaf and no NaN
    argv = [command, "--method", "ln", "--set", "C=3"]
    for leaf, (sign, exponent) in leaves.items():
        argv += ["--set", f"{leaf}={sign * 10.0**exponent!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    if code == 0:
        _strict_json(out)
    elif code == 3:
        assert NAMES_A_LEAF.search(err) and "nan" not in err, (argv, err)


def test_tiny_spot_skewness_underflow_exits_3(capsys, tmp_path):
    # m2^(3/2) underflows while m2 > 0, so the sample skewness is not resolved;
    # the SLN price takes the moments of P/P0, which do not shrink with the spot
    csv = str(tmp_path / "out.csv")
    at = ("--set", "C=3", "--set", "n=200", "--set", "P0=1e-150")
    code, out, err = run_cli(capsys, "price", "--method", "sln", *at)
    assert (code, err) == (0, ""), err
    assert math.isfinite(_strict_json(out)["price"])
    for argv in (
        ("fit",) + at,
        ("qq", "--out", csv) + at,
        ("sweep", "--axis1", "K=99,101", "--axis2", "C=3", "--out", csv) + at,
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: degenerate sample: ") and err.count("\n") == 1, argv
        assert "underflows" in err, argv


def test_tiny_spot_crn_delta_sweep_takes_its_skew_from_p_over_p0(capsys, tmp_path):
    # a delta sweep's skew is that of P/P0, whose m2 does not shrink with the
    # spot: at P0 = 1e-150 it is the P0 = 100 sweep's, bit for bit
    csv = tmp_path / "out.csv"
    skews = []
    for spots, bump in (("1e-150,2e-150", "1e-156"), ("100,200", "1e-4")):
        argv = ("sweep", "--axis1", f"P0={spots}", "--axis2", "C=3", "--engines", "mc", "--greek", "delta",
                "--crn-axis", "1", "--set", "n=2000", "--set", f"bump={bump}", "--out", str(csv))
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        skews.append([row.split(",")[-1] for row in csv.read_text(encoding="utf-8").splitlines()[1:]])
        axis = SweepAxis("P0", tuple(float(v) for v in spots.split(",")))
        spec = SweepSpec(BaseParams(n=2000, bump=float(bump)), axis, SweepAxis("C", (3.0,)),
                         engines=("MC",), greek="delta", crn_axis=1)
        skews.append([cell.skew.hex() for cell in run_sweep(spec)])
    tiny_csv, tiny, ref_csv, ref = skews
    assert tiny_csv == ref_csv and tiny == ref and len(set(tiny)) == 1


def sln_at(capsys, C, P0, K):
    return run_json(capsys, "price", "--method", "sln", "--set", f"C={C}", "--set", f"P0={P0!r}",
                    "--set", f"K={K!r}")


@pytest.mark.parametrize("C", [0.5, 3.0, 30.0, 40.0])
def test_sln_price_scales_with_the_spot(capsys, C):
    # the SLN fits the moments of P/P0, which do not depend on the spot: at
    # P0 = K = 100 lam the price is lam times the P0 = K = 100 price up to the
    # rounding of the last product, and sigma_X is the same bits; a power of
    # two scales every strike and the fit's theta exactly
    eps = sys.float_info.epsilon
    base = sln_at(capsys, C, 100.0, 100.0)
    for lam in (1e-300, 1e-100, 1e100, 1e300):
        doc = sln_at(capsys, C, 100.0 * lam, 100.0 * lam)
        assert abs(doc["price"] / lam / base["price"] - 1.0) <= 4 * eps, lam
        assert doc["fit"]["sigma_X"] == base["fit"]["sigma_X"], lam
        assert doc["fit"]["mu_X"] == pytest.approx(base["fit"]["mu_X"] + math.log(lam), abs=1e-12)
    for K in (97.0, 103.0):
        base = sln_at(capsys, C, 100.0, K)
        for lam in (2.0**-990, 2.0**990):
            doc = sln_at(capsys, C, 100.0 * lam, K * lam)
            assert doc["price"] / lam == base["price"], (K, lam)
            assert doc["fit"]["theta"] / lam == base["fit"]["theta"], (K, lam)
            assert doc["fit"]["sigma_X"] == base["fit"]["sigma_X"], (K, lam)


def test_sln_prices_at_a_spot_whose_sample_moments_overflow(capsys):
    # m3 of a sample of P overflows at P0 = 1e120; the moments of P/P0 do not
    code, out, err = run_cli(
        capsys, "price", "--method", "sln", "--set", "C=3", "--set", "P0=1e120", "--set", "K=1e120"
    )
    assert (code, err) == (0, ""), err
    doc = _strict_json(out)
    assert math.isfinite(doc["price"]) and all(math.isfinite(v) for v in doc["fit"].values())
    assert doc["price"] / 1e118 == pytest.approx(sln_at(capsys, 3.0, 100.0, 100.0)["price"], rel=1e-15)


@pytest.mark.parametrize("C", [0.5, 3.0, 30.0])
def test_sln_at_a_vanishing_rate_volatility_takes_no_orientation_from_roundoff(capsys, C):
    # the quadrature's node prices are equal but for roundoff, which left
    # m3 ~ -1e-47 at sigma = 1e-300 and a put-oriented fit with theta ~ P0;
    # an m3 that roundoff cannot resolve is 0, so the fit is the two-moment
    # lognormal, as it is at sigma = 1e-10
    for sigma in ("1e-300", "1e-12", "1e-10"):
        doc = run_json(capsys, "price", "--method", "sln", "--set", f"C={C}", "--set", f"sigma={sigma}")
        fit = doc["fit"]
        assert (fit["orientation"], fit["theta"], fit["tau"]) == (1, 0.0, 0.0), sigma
        assert fit["sigma_X"] < 1e-9 and 0.0 <= doc["price"] < 2e-8, sigma


@pytest.mark.parametrize("mu", ["1e150", "1e300"])
def test_ln_underflowed_mean_prices_a_worthless_call(capsys, mu):
    # the matched mean M1 underflows to 0; MC prices this case at 0.0 too
    at = ("--method", "ln", "--set", "C=3", "--set", f"mu={mu}")
    code, out, err = run_cli(capsys, "price", *at)
    assert code == 0 and err.count("\n") <= 1, err
    assert _strict_json(out)["price"] == 0.0
    code, out, err = run_cli(capsys, "greeks", *at)
    assert code == 0 and err.count("\n") <= 1, err
    doc = _strict_json(out)
    assert (doc["delta"], doc["gamma"], doc["sanity"]["delta_upper_bound"]) == (0.0, 0.0, 0.0)
    assert run_json(capsys, "price", "--method", "mc", "--set", "C=3", "--set", "n=200",
                    "--set", f"mu={mu}")["price"] == 0.0


@pytest.mark.parametrize("P0", ["1e-300", "1e-160"])
def test_ln_gamma_at_a_spot_whose_square_underflows_is_zero_at_the_default_strike(capsys, P0):
    doc = run_json(capsys, "greeks", "--method", "ln", "--set", "C=3", "--set", f"P0={P0}")
    assert doc["gamma"] == 0.0


@pytest.mark.parametrize("P0", [1e-160, 1e-170, 1e-300])
def test_ln_gamma_at_a_spot_whose_square_underflows_scales_as_one_over_p0(capsys, P0):
    # gamma at P0 = K is 1/P0 times a constant; P0^2 is subnormal or 0 here
    def gamma(p: float) -> float:
        argv = ("greeks", "--method", "ln", "--set", "C=3", "--set", f"P0={p!r}", "--set", f"K={p!r}")
        return run_json(capsys, *argv)["gamma"]

    assert gamma(P0) == pytest.approx(gamma(1e-150) * 1e-150 / P0, rel=1e-12)


def test_ln_gamma_past_double_range_exits_3_naming_p0(capsys):
    code, out, err = run_cli(
        capsys, "greeks", "--method", "ln", "--set", "C=3", "--set", "P0=3e-308", "--set", "K=3e-308"
    )
    assert (code, out, err) == (3, "", "error: non-finite result: gamma is inf at P0=3e-308\n")


@pytest.mark.parametrize("P0", ["5e-324", "1e-310", "1e-320"], ids=["P0=5e-324", "P0=1e-310", "P0=1e-320"])
def test_ln_gamma_at_a_subnormal_spot_or_mean_exits_3_naming_p0(capsys, P0):
    # gamma scales as 1/P0, past double range at a subnormal spot; the price
    # scales as P0, a subnormal that exits 0
    at = ("--method", "ln", "--set", "C=3", "--set", f"P0={P0}", "--set", f"K={P0}")
    code, out, err = run_cli(capsys, "greeks", *at)
    assert (code, out, err) == (3, "", f"error: non-finite result: gamma is inf at P0={P0}\n")
    assert 0.0 <= run_json(capsys, "price", *at)["price"] < sys.float_info.min


@pytest.mark.parametrize("P0", [1e155, 1e200, 1e300, 1e308])
@pytest.mark.parametrize("C", ["3", "40"])
def test_ln_at_a_spot_whose_square_overflows_scales_with_p0(capsys, P0, C):
    # at P0 = K the price and gamma scale as P0 and 1/P0 and delta is scale-free,
    # so each matches P0 = K = 100; the regime check is scale-free too
    def run(command, p):
        argv = (command, "--method", "ln", "--set", f"C={C}", "--set", f"P0={p!r}", "--set", f"K={p!r}")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        return _strict_json(out), err

    (greeks, err), (ref, ref_err) = run("greeks", P0), run("greeks", 100.0)
    assert err == ref_err and ("warning" in err) == (C == "40")
    assert greeks["delta"] == pytest.approx(ref["delta"], rel=1e-12)
    assert greeks["gamma"] * P0 == pytest.approx(100.0 * ref["gamma"], rel=1e-12)
    (price, err), (ref, ref_err) = run("price", P0), run("price", 100.0)
    assert err == ref_err
    assert price["price"] / P0 == pytest.approx(ref["price"] / 100.0, rel=1e-11)


def test_ln_delta_sweep_at_a_subnormal_spot_matches_the_p0_scaling(capsys, tmp_path):
    # the delta depends on K/P0 alone: a sweep gave deltas 1 and 0 here (and
    # then exited 3), where the P0 = K scaling gives the deltas at P0 = 100
    def deltas(P0: str, strikes: str) -> list[str]:
        csv = tmp_path / "s.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--axis1", f"K={strikes}", "--axis2", "C=3,4", "--engines", "ln",
            "--greek", "delta", "--set", f"P0={P0}", "--out", str(csv),
        )
        assert (code, err) == (0, ""), err
        return [row.split(",")[7] for row in csv.read_text(encoding="utf-8").splitlines()[1:]]

    assert deltas("5e-324", "5e-324,1e-323") == deltas("100", "100,200")


@pytest.mark.parametrize("spot", [(), ("--set", "P0=1e300")])
def test_ln_strike_whose_ratio_to_spot_underflows_is_deep_in_the_money(capsys, tmp_path, spot):
    # K/P0 underflows to 0: the call cannot miss, so delta = df M1/P0 and gamma = 0
    K, K2 = ("1e-30", "1e-25") if spot else ("1e-323", "5e-323")
    doc = run_json(capsys, "greeks", "--method", "ln", "--set", "C=3", "--set", f"K={K}", *spot)
    assert doc["delta"] == doc["sanity"]["delta_upper_bound"] > 0.0 and doc["gamma"] == 0.0
    csv = tmp_path / "s.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--axis1", f"K={K},{K2}", "--axis2", "C=3", "--engines", "ln",
        "--greek", "delta", "--out", str(csv), *spot,
    )
    assert (code, err) == (0, ""), err
    rows = csv.read_text(encoding="utf-8").splitlines()[1:]
    assert [float(row.split(",")[7]) for row in rows] == pytest.approx([doc["delta"]] * 2, rel=1e-9)


def test_greeks_ln_evaluates_the_matched_law_once(capsys, monkeypatch):
    # _matched_law is what every LN entry point computes (mu, sigma_P) with
    laws = []

    def counting(*args):
        laws.append(args)
        return law(*args)

    law = pricer_closed._matched_law
    monkeypatch.setattr(pricer_closed, "_matched_law", counting)
    doc = run_json(capsys, "greeks", "--method", "ln", "--set", "C=3")
    assert len(laws) == 1
    assert doc["delta"] == pytest.approx(0.5159808504727675, rel=1e-12)


def test_readme_price_example_is_current(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    prompt = "$ mtgopt price --method sln --set C=3\n"
    block = readme.split(prompt, 1)[1].split("```", 1)[0]
    assert run_json(capsys, "price", "--method", "sln", "--set", "C=3") == json.loads(block)
