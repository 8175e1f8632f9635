"""CLI behavior: config/override plumbing, seed precedence, output shape,
exit codes, determinism."""
import json
import subprocess
import sys
from dataclasses import fields

import pytest

from mtgopt.cli import _SCHEMA, main
from mtgopt.harness import BaseParams


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
    leaves = [leaf for block in _SCHEMA.values() for leaf in block]
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
    assert doc["price"] == 2.111313513907059
    assert doc["std_error"] == 0.011783406227310726
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
    # a bump below the roundoff floor (about 9.3e-8 at P0=100) would give a
    # delta made of roundoff
    for bump in ("1e-14", "1e-13", "1e-08"):
        argv = ("greeks", "--method", "mc", "--set", "C=3", "--set", f"bump={bump}")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and f"bump={bump}" in err


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
        cases.append(cmd + at + ("--set", "T=1e308", "--set", "r_f=-1"))
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
