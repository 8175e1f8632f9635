"""Golden CLI bytes: stdout, stderr, exit code and CSV of fixed invocations.

Each case runs `mtgopt.cli.main` in-process and compares its output with the
files under tests/golden/, recorded from an earlier version of the package.
Refactors must keep every byte; re-record (`python tests/test_golden.py`)
only for an intended output change, and say so in the change log. Changes
made since recording are listed in STDERR_NOW_AS, not edited into the files.
"""
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from mtgopt.cli import main
from mtgopt.harness import DEFAULT_SEED, BaseParams, skew_csv_lines, skew_table, write_csv
from mtgopt.mc_engine import McConfig

GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> case whose recorded stderr it now prints: `greeks --method ln` warns
# out of regime exactly as `price --method ln` does
STDERR_NOW_AS = {"greeks_ln_C30": "price_ln_C30"}

REFERENCE_CURVATURES = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 15.0, 20.0, 30.0, 40.0]


def _cases() -> dict[str, tuple[str, ...]]:
    cases = {"defaults": ("defaults",)}
    seed = ("--seed", "11")
    for c in ("0.5", "3", "30"):
        at = ("--set", f"C={c}") + seed
        sampled = at + ("--set", "n=5000")
        for method in ("mc", "sln"):
            cases[f"price_{method}_C{c}"] = ("price", "--method", method) + sampled
        cases[f"price_ln_C{c}"] = ("price", "--method", "ln") + at
        cases[f"greeks_ln_C{c}"] = ("greeks", "--method", "ln") + at
        cases[f"greeks_mc_C{c}"] = ("greeks", "--method", "mc") + sampled
        cases[f"fit_C{c}"] = ("fit",) + sampled
    cases["sweep_price_KxC"] = (
        "sweep", "--axis1", "K=97:103:7", "--axis2", "C=0.5,3,30", "--set", "n=3000",
    ) + seed
    cases["sweep_delta_P0_crn1"] = (
        "sweep", "--axis1", "P0=98,100,102", "--axis2", "C=0.5,3", "--greek", "delta",
        "--crn-axis", "1", "--set", "n=3000",
    ) + seed
    for c in ("3", "30"):
        cases[f"qq_C{c}"] = ("qq", "--set", f"C={c}", "--set", "n=5000") + seed
    return cases


CASES = _cases()


def _writes_csv(argv: tuple[str, ...]) -> bool:
    return argv[0] in ("sweep", "qq")


def _run(argv: tuple[str, ...], out_dir: Path, capture) -> tuple[dict, bytes | None]:
    """Run one invocation; capture() yields (stdout, stderr) after the call."""
    csv = out_dir / "out.csv"
    full = list(argv) + (["--out", str(csv)] if _writes_csv(argv) else [])
    code = main(full)
    out, err = capture()
    record = {"argv": list(argv), "exit_code": code, "stdout": out, "stderr": err}
    return record, csv.read_bytes() if _writes_csv(argv) else None


def _skew_csv_bytes(out_dir: Path) -> bytes:
    rows = skew_table(REFERENCE_CURVATURES, BaseParams(), McConfig(70000, DEFAULT_SEED))
    path = out_dir / "skew.csv"
    write_csv(skew_csv_lines(rows), str(path))
    return path.read_bytes()


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("MTGOPT_SEED", raising=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_golden(name, capsys, tmp_path):
    def capture():
        got = capsys.readouterr()
        return got.out, got.err

    record, csv = _run(CASES[name], tmp_path, capture)
    want = _golden(name)
    if name in STDERR_NOW_AS:
        want["stderr"] = _golden(STDERR_NOW_AS[name])["stderr"]
    assert record == want
    if csv is not None:
        assert csv == (GOLDEN / f"{name}.csv").read_bytes()


def test_skew_csv_matches_golden(tmp_path):
    assert _skew_csv_bytes(tmp_path) == (GOLDEN / "skew_table.csv").read_bytes()


def _record_all() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        for name, argv in CASES.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                record, csv = _run(argv, out_dir, lambda: (out.getvalue(), err.getvalue()))
            text = json.dumps(record, indent=1, sort_keys=True) + "\n"
            (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
            if csv is not None:
                (GOLDEN / f"{name}.csv").write_bytes(csv)
        (GOLDEN / "skew_table.csv").write_bytes(_skew_csv_bytes(out_dir))


if __name__ == "__main__":
    if "MTGOPT_SEED" in os.environ:
        sys.exit("unset MTGOPT_SEED before recording")
    _record_all()
