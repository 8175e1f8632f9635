"""Command-line front end: price, greeks, fit, sweep, qq, defaults.

Configuration is a JSON file with blocks model (L,U,C,x0), market (P0,r0),
dynamics (mu,sigma), contract (K,T,r_f), mc (n,seed,bump): one block per
dataclass in harness.BLOCKS, one key per field. Unknown keys are rejected.
`--set leaf=value` overrides apply after the file loads, so precedence is
built-in defaults < config file < flags. Every command validates the whole
resolved bundle, and a sweep every cell of it before it draws. The seed
resolves as --seed flag > config mc.seed > MTGOPT_SEED env var > built-in
default; no command ever falls back to wall-clock entropy.

JSON results go to stdout as strict JSON with sorted keys and a
schema_version field. Exit codes: 0 ok, 2 invalid input, 3 numerical
degeneracy (degenerate sample, non-finite result or overflow) or an array too
large to allocate, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import asdict, fields, replace

import numpy as np

from .distfit import central_moments, fit_shifted_lognormal
from .errors import DegenerateSampleError, NonFiniteResultError, ValidationError
from .harness import (
    BLOCK_LEAVES,
    LEAF_AT,
    BaseParams,
    SweepAxis,
    SweepSpec,
    check_quantile_count,
    materialize,
    qq_csv_lines,
    qq_export,
    run_sweep,
    skew_table,
    sweep_csv_lines,
    write_csv,
)
from .mc_engine import check_workers, crn_delta, naming_leaves, price_mc, simulate_terminal_prices, thread_draws
from .pricer_closed import (
    delta_from_kernel,
    gamma_from_kernel,
    ln_kernel,
    naming_law,
    price_ln,
    price_sln,
    quadrature_moments,
    regime_warning,
)

SCHEMA_VERSION = 1

_INT_LEAVES = frozenset(leaf for leaf, hint in typing.get_type_hints(BaseParams).items() if hint is int)
# leaves a config may leave unset (null): those whose bundle default is None
_NULLABLE_LEAVES = frozenset(f.name for f in fields(BaseParams) if f.default is None)


def _coerce(leaf: str, value: object) -> float | int | None:
    if value is None:
        if leaf in _NULLABLE_LEAVES:
            return None
        raise ValidationError(f"{leaf} must be a number, got null")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{leaf} must be a number, got {value!r}")
    if leaf in _INT_LEAVES:
        if not (isinstance(value, int) or value.is_integer()):
            raise ValidationError(f"{leaf} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _read_config_file(path: str) -> dict[str, float | int | None]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")
    leaves: dict[str, float | int | None] = {}
    for block, payload in data.items():
        if block not in BLOCK_LEAVES:
            raise ValidationError(f"unknown config block {block!r}")
        if not isinstance(payload, dict):
            raise ValidationError(f"config block {block!r} must be an object")
        for leaf, value in payload.items():
            if leaf not in BLOCK_LEAVES[block]:
                raise ValidationError(f"unknown key {leaf!r} in block {block!r}")
            leaves[leaf] = _coerce(leaf, value)
    return leaves


def _parse_set(pairs: list[str]) -> dict[str, float | int]:
    out: dict[str, float | int] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key or not raw:
            raise ValidationError(f"--set expects leaf=value, got {pair!r}")
        if key not in LEAF_AT:
            raise ValidationError(f"unknown parameter {key!r} (valid: {sorted(LEAF_AT)})")
        try:
            value = int(raw) if key in _INT_LEAVES else float(raw)
        except ValueError as exc:
            raise ValidationError(f"cannot parse {key}={raw!r} as a number") from exc
        out[key] = value
    return out


def _resolve_bundle(args: argparse.Namespace) -> BaseParams:
    """The bundle; workers is checked first."""
    check_workers(args.workers)
    leaves: dict[str, float | int | None] = {}
    if args.config is not None:
        leaves.update(_read_config_file(args.config))
    leaves.update(_parse_set(args.set))
    if args.seed is not None:
        leaves["seed"] = args.seed
    elif "seed" not in leaves:
        env = os.environ.get("MTGOPT_SEED")
        if env is not None:
            try:
                leaves["seed"] = int(env)
            except ValueError as exc:
                raise ValidationError(f"MTGOPT_SEED must be an integer, got {env!r}") from exc
    return replace(BaseParams(), **leaves)


def _emit(payload: dict) -> None:
    payload["schema_version"] = SCHEMA_VERSION
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteResultError(json.dumps(payload, sort_keys=True)) from None
    sys.stdout.write(text + "\n")


def _warn(warning: str | None) -> None:
    if warning:
        sys.stderr.write(f"warning: {warning}\n")


def _fit_payload(fit) -> dict:
    return {
        "theta": fit.theta,
        "orientation": fit.orientation,
        "mu_X": fit.log_params.mu_X,
        "sigma_X": fit.log_params.sigma_X,
        "tau": fit.tau,
    }


def _materialize(args: argparse.Namespace):
    """The bundle's BLOCKS objects and the thread's sample provider."""
    return (*materialize(_resolve_bundle(args)), thread_draws(args.workers))


def cmd_price(args: argparse.Namespace) -> int:
    model, dyn, contract, cfg, draws = _materialize(args)
    if args.method == "mc":
        res = price_mc(model, dyn, contract, cfg, draws)
        _emit({"method": "mc", "price": res.price, "std_error": res.std_error, "n": cfg.n})
    elif args.method == "sln":
        with naming_law(model, dyn, contract.T):
            res = price_sln(quadrature_moments(model, dyn, contract.T), contract, model.market.P0)
        _emit({"method": "sln", "price": res.price, "fit": _fit_payload(res.diagnostics)})
    else:
        res = price_ln(model, dyn, contract)
        law = res.diagnostics
        _warn(res.warning)
        _emit({"method": "ln", "price": res.price, "mu_P": law.mu_P, "sigma_P": law.sigma_P})
    return 0


def cmd_greeks(args: argparse.Namespace) -> int:
    model, dyn, contract, cfg, draws = _materialize(args)
    if args.method == "mc":
        _emit({"method": "mc", "delta": crn_delta(model, dyn, contract, cfg, draws), "bump": cfg.bump})
        return 0
    m1, w = ln_kernel(model, dyn, contract.T)
    P0, k, df = model.market.P0, contract.K / model.market.P0, contract.df
    _warn(regime_warning(model, dyn, contract.T))
    _emit(
        {
            "method": "ln",
            "delta": delta_from_kernel(m1, w, k, df),
            "gamma": gamma_from_kernel(m1, w, k, df, P0),
            "sanity": {"delta_upper_bound": df * m1},
        }
    )
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    bundle = _resolve_bundle(args)
    (row,) = skew_table([bundle.C], bundle, args.workers)
    _emit({"moments": asdict(row.moments), "skew": row.skew, "fit": _fit_payload(row.fit)})
    return 0


def _parse_axis(raw: str) -> SweepAxis:
    name, sep, body = raw.partition("=")
    if not sep or not name or not body:
        raise ValidationError(f"axis must be NAME=v1,v2,... or NAME=start:stop:count, got {raw!r}")
    if ":" in body:
        parts = body.split(":")
        if len(parts) != 3:
            raise ValidationError(f"linear axis needs start:stop:count, got {body!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"cannot parse axis {raw!r}") from exc
        return SweepAxis.linear(name, start, stop, count)
    try:
        values = tuple(float(v) for v in body.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse axis values in {raw!r}") from exc
    return SweepAxis(name, values)


def cmd_sweep(args: argparse.Namespace) -> int:
    bundle = _resolve_bundle(args)
    engines = tuple(e.strip().upper() for e in args.engines.split(","))
    spec = SweepSpec(
        base=bundle,
        axis1=_parse_axis(args.axis1),
        axis2=_parse_axis(args.axis2),
        engines=engines,
        greek=args.greek,
        crn_axis=args.crn_axis,
    )
    cells = run_sweep(spec, args.workers)
    write_csv(sweep_csv_lines(cells), args.out)
    diffs = [
        abs(d)
        for c in cells
        for d in (c.rel_diff_sln_pct, c.rel_diff_ln_pct)
        if d is not None
    ]
    summary = f"{max(diffs):.10g}" if diffs else "n/a"
    sys.stdout.write(f"cells={len(cells)} max_abs_rel_diff_pct={summary}\n")
    return 0


def cmd_qq(args: argparse.Namespace) -> int:
    model, dyn, contract, cfg, draws = _materialize(args)
    check_quantile_count(args.quantiles)
    prices, work, spare = draws.work(3, cfg.n)
    simulate_terminal_prices(model, dyn, contract.T, cfg, draws, (prices, work))
    with naming_leaves("a moment of P", model, dyn, contract.T, cfg.n):
        fit = fit_shifted_lognormal(central_moments(prices, (work, spare)))
    points = qq_export(prices, fit, args.quantiles)
    write_csv(qq_csv_lines(points), args.out)
    gap = max(abs(emp - fitted) for _, emp, fitted in points)
    sys.stdout.write(f"quantiles={len(points)} max_abs_gap={gap:.10g}\n")
    return 0


def cmd_defaults(args: argparse.Namespace) -> int:
    p = BaseParams()
    _emit({block: {leaf: getattr(p, leaf) for leaf in leaves} for block, leaves in BLOCK_LEAVES.items()})
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="LEAF=VALUE",
        help="override one parameter (e.g. C=3, K=101); repeatable",
    )
    sub.add_argument("--seed", type=int, help="RNG seed (overrides config and MTGOPT_SEED)")
    sub.add_argument("--workers", type=int, default=1, help="worker threads for sampling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtgopt",
        description="Price European calls on mortgage pass-throughs under a "
        "logistic-duration model (closed-form SLN/LN approximations plus a "
        "seeded MC reference).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("price", help="price one contract")
    _add_common(p)
    p.add_argument("--method", choices=("sln", "ln", "mc"), default="sln")
    p.set_defaults(func=cmd_price)

    p = subs.add_parser("greeks", help="delta (and gamma for ln)")
    _add_common(p)
    p.add_argument("--method", choices=("ln", "mc"), default="ln")
    p.set_defaults(func=cmd_greeks)

    p = subs.add_parser("fit", help="sample the terminal price and fit a shifted lognormal")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("sweep", help="two-axis accuracy sweep to CSV")
    _add_common(p)
    p.add_argument("--axis1", required=True, help="NAME=v1,v2,... or NAME=start:stop:count")
    p.add_argument("--axis2", required=True, help="same grammar as --axis1")
    p.add_argument("--engines", default="sln,ln,mc", help="comma list from sln,ln,mc")
    p.add_argument("--greek", choices=("delta",), help="sweep deltas instead of prices")
    p.add_argument("--crn-axis", type=int, choices=(1, 2), dest="crn_axis",
                   help="reuse one rate sample along this axis")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("qq", help="empirical vs fitted quantiles to CSV")
    _add_common(p)
    p.add_argument("--quantiles", type=int, default=99, help="quantile count")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_qq)

    p = subs.add_parser("defaults", help="print the default parameter bundle as JSON")
    p.set_defaults(func=cmd_defaults)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow or NaN inside numpy is a non-finite result, not a warning
        with np.errstate(all="raise", under="ignore"):
            return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DegenerateSampleError as exc:
        sys.stderr.write(f"error: degenerate sample: {exc}\n")
        return 3
    except (NonFiniteResultError, FloatingPointError, OverflowError) as exc:
        sys.stderr.write(f"error: non-finite result: {exc}\n")
        return 3
    except MemoryError as exc:
        sys.stderr.write(f"error: cannot allocate: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    finally:
        # nothing a command kept outlives it; the provider's slots do
        thread_draws().release()


if __name__ == "__main__":
    sys.exit(main())
