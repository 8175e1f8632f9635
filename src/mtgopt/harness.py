"""Experiment harness: parameter bundle, sensitivity sweeps, skew table, QQ export.

BaseParams holds every parameter leaf; materialize builds from it the BLOCKS
dataclasses, which validate them. A sweep cell is the base bundle with its
two axis leaves replaced.

Sweeps evaluate a two-axis grid of cells. Per-cell seeds derive from the base
seed and the axis indices through a 64-bit mix, so cells are independent yet
reproducible; crn_axis drops the chosen axis index from the hash so one rate
sample is reused along that axis (for exactly-monotone curves). Within a cell
the closed-form fit sample and the MC reference sample use separately derived
seeds: accuracy comparisons never grade an engine against its own draw.

CSV output is UTF-8 with LF line endings, '.' decimals, a mandatory header,
and 10 significant digits; blank fields mean "engine not requested" (or, for
rel-diff fields, an MC price too small to divide by). A NaN or infinite field
raises NonFiniteResultError instead of being written.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np
from scipy.special import ndtri

from .distfit import ShiftedLognormalFit, central_moments, fit_shifted_lognormal, skewness
from .errors import NonFiniteResultError, ValidationError
from .mc_engine import (
    DEFAULT_SEED,  # noqa: F401  re-exported: the seed of every default bundle
    McConfig,
    delta_mc,
    mix64,
    price_mc,
    simulate_terminal_prices,
    simulate_terminal_rates,
)
from .model import (
    DurationParams,
    MarketState,
    ModelSpec,
    OptionContract,
    RateDynamics,
    price as model_price,
)
from .pricer_closed import delta_ln, price_ln, price_sln

# sub-seed tags: fit sample vs MC reference inside one cell
_FIT_TAG = 1
_REF_TAG = 2

# MC prices at or below this are not divided by for relative differences
REL_DIFF_FLOOR = 1e-10

_AXIS_NAMES = ("K", "C", "sigma", "P0")

ENGINE_SLN = "SLN"
ENGINE_LN = "LN"
ENGINE_MC = "MC"
_ENGINES = (ENGINE_SLN, ENGINE_LN, ENGINE_MC)

SKEW_CSV_HEADER = "C,skew,orientation,theta,mu_X,sigma_X"
QQ_CSV_HEADER = "p,empirical_q,fitted_q"


@dataclass(frozen=True)
class BaseParams:
    """Scalar parameter bundle, one field per leaf of BLOCKS; curvature C
    stays unset until a sweep or command provides it."""

    L: float = 1.0
    U: float = 9.0
    C: float | None = None
    x0: float = 0.055
    P0: float = 100.0
    r0: float = 0.01
    mu: float = 0.0
    sigma: float = 0.02
    K: float = 100.0
    T: float = 90.0 / 360.0
    r_f: float = 0.0209
    n: int = McConfig.n
    seed: int = McConfig.seed
    bump: float = McConfig.bump


# config block name -> the dataclass that defines and validates its leaves
BLOCKS: dict[str, type] = {
    "model": DurationParams,
    "market": MarketState,
    "dynamics": RateDynamics,
    "contract": OptionContract,
    "mc": McConfig,
}


@dataclass(frozen=True)
class SweepAxis:
    """A named, strictly increasing sweep axis."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.name not in _AXIS_NAMES:
            raise ValidationError(f"axis name must be one of {_AXIS_NAMES}, got {self.name!r}")
        if len(self.values) == 0:
            raise ValidationError("axis values must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValidationError(f"axis values must be strictly increasing: {self.values}")

    @classmethod
    def linear(cls, name: str, start: float, stop: float, count: int) -> "SweepAxis":
        if count < 1:
            raise ValidationError(f"axis needs at least one point, got count={count}")
        return cls(name, tuple(np.linspace(start, stop, count).tolist()))


@dataclass(frozen=True)
class SweepSpec:
    """Two-axis grid: base bundle, engines to run, optional greek, CRN axis."""

    base: BaseParams
    axis1: SweepAxis
    axis2: SweepAxis
    engines: tuple[str, ...] = (ENGINE_SLN, ENGINE_LN, ENGINE_MC)
    greek: str | None = None
    crn_axis: int | None = None

    def __post_init__(self) -> None:
        if self.axis1.name == self.axis2.name:
            raise ValidationError(f"sweep axes must differ, both are {self.axis1.name!r}")
        bad = [e for e in self.engines if e not in _ENGINES]
        if bad or not self.engines:
            raise ValidationError(f"engines must be a non-empty subset of {_ENGINES}, got {self.engines}")
        if self.greek not in (None, "delta"):
            raise ValidationError(f"greek must be 'delta' or omitted, got {self.greek!r}")
        if self.greek == "delta" and ENGINE_LN not in self.engines and ENGINE_MC not in self.engines:
            raise ValidationError(f"greek 'delta' needs engine LN or MC, got {self.engines}")
        if self.crn_axis not in (None, 1, 2):
            raise ValidationError(f"crn_axis must be 1 or 2, got {self.crn_axis}")


@dataclass(frozen=True)
class GridCell:
    """One grid point; None marks a field not requested or not divisible."""

    axis1_name: str
    axis1_value: float
    axis2_name: str
    axis2_value: float
    price_mc: float | None = None
    se_mc: float | None = None
    price_sln: float | None = None
    price_ln: float | None = None
    rel_diff_sln_pct: float | None = None
    rel_diff_ln_pct: float | None = None
    skew: float | None = None


SWEEP_CSV_HEADER = ",".join(f.name for f in fields(GridCell))


@dataclass(frozen=True)
class SkewTableRow:
    """One curvature row: sample skew and the fitted shifted lognormal."""

    C: float
    skew: float
    fit: ShiftedLognormalFit


def materialize(bundle: BaseParams) -> tuple[ModelSpec, RateDynamics, OptionContract, McConfig]:
    """Build and validate every BLOCKS object from the bundle's leaves."""
    if bundle.C is None:
        raise ValidationError("curvature C must be set (by config or sweep axis)")
    dur, market, dyn, contract, cfg = (
        cls(**{f.name: getattr(bundle, f.name) for f in fields(cls)}) for cls in BLOCKS.values()
    )
    return ModelSpec.calibrate(dur, market), dyn, contract, cfg


def _cell_seed(spec: SweepSpec, i: int, j: int) -> int:
    if spec.crn_axis == 1:
        return mix64(spec.base.seed, j)
    if spec.crn_axis == 2:
        return mix64(spec.base.seed, i)
    return mix64(spec.base.seed, i, j)


def _price_cell(spec: SweepSpec, bundle: BaseParams, seed: int, workers: int) -> dict[str, float | None]:
    model, dyn, c, cfg = materialize(bundle)
    out: dict[str, float | None] = {}
    ref_cfg = replace(cfg, seed=mix64(seed, _REF_TAG))
    if ENGINE_MC in spec.engines:
        if spec.greek == "delta":
            out["price_mc"] = delta_mc(model, dyn, c, ref_cfg, workers)
        else:
            res = price_mc(model, dyn, c, ref_cfg, workers)
            out["price_mc"] = res.price
            out["se_mc"] = res.std_error
        # same cfg -> bit-identical redraw of the reference sample (the base
        # leg, for delta sweeps); skew always describes what MC actually saw
        sample = simulate_terminal_prices(model, dyn, c.T, ref_cfg, workers)
        out["skew"] = skewness(central_moments(sample))
    if ENGINE_SLN in spec.engines and spec.greek is None:
        fit_cfg = replace(cfg, seed=mix64(seed, _FIT_TAG))
        fit_sample = simulate_terminal_prices(model, dyn, c.T, fit_cfg, workers)
        out["price_sln"] = price_sln(central_moments(fit_sample), c).price
    if ENGINE_LN in spec.engines:
        out["price_ln"] = (
            delta_ln(model, dyn, c) if spec.greek == "delta" else price_ln(model, dyn, c).price
        )
    mc = out.get("price_mc")
    if mc is not None and mc > REL_DIFF_FLOOR:
        if out.get("price_sln") is not None:
            out["rel_diff_sln_pct"] = (out["price_sln"] - mc) * 100.0 / mc
        if out.get("price_ln") is not None:
            out["rel_diff_ln_pct"] = (out["price_ln"] - mc) * 100.0 / mc
    return out


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[GridCell]:
    """Evaluate the grid row-major over axis1 x axis2; deterministic in seeds."""
    cells = []
    for i, v1 in enumerate(spec.axis1.values):
        for j, v2 in enumerate(spec.axis2.values):
            bundle = replace(spec.base, **{spec.axis1.name: v1, spec.axis2.name: v2})
            vals = _price_cell(spec, bundle, _cell_seed(spec, i, j), workers)
            cells.append(
                GridCell(
                    axis1_name=spec.axis1.name,
                    axis1_value=v1,
                    axis2_name=spec.axis2.name,
                    axis2_value=v2,
                    **vals,
                )
            )
    return cells


def skew_table(curvatures: list[float], base: BaseParams, workers: int = 1) -> list[SkewTableRow]:
    """One row per curvature, all rows driven by ONE rate sample (base.n, base.seed).

    The terminal rate law does not depend on C, so a single seeded sample maps
    through every curvature's price curve; rows are directly comparable.
    """
    if not curvatures:
        raise ValidationError("curvatures must be non-empty")
    model0, dyn, contract, cfg = materialize(replace(base, C=curvatures[0]))
    rates = simulate_terminal_rates(model0.market, dyn, contract.T, cfg, workers)
    rows = []
    for c_val in curvatures:
        model = materialize(replace(base, C=c_val))[0]
        fit_input = central_moments(model_price(model, rates))
        fit = fit_shifted_lognormal(fit_input)
        rows.append(SkewTableRow(C=c_val, skew=skewness(fit_input), fit=fit))
    return rows


def qq_export(
    sample, fit: ShiftedLognormalFit, quantile_count: int
) -> list[tuple[float, float, float]]:
    """(p, empirical, fitted) at p = (j-0.5)/quantile_count.

    Empirical quantiles interpolate order statistics at plotting positions
    (i-0.5)/n; fitted quantiles are analytic: theta + o exp(mu_X + sigma_X
    ndtri(q)) with q = p for orientation o = +1 and q = 1-p for o = -1.
    """
    if quantile_count < 2:
        raise ValidationError(f"need at least 2 quantiles, got {quantile_count}")
    a = np.asarray(sample, dtype=float)
    ps = (np.arange(1, quantile_count + 1) - 0.5) / quantile_count
    emp = np.quantile(a, ps, method="hazen")
    lp = fit.log_params
    o = fit.orientation
    fitted = fit.theta + o * np.exp(lp.mu_X + lp.sigma_X * ndtri(ps if o > 0 else 1.0 - ps))
    return list(zip(ps.tolist(), emp.tolist(), fitted.tolist()))


def _fmt(v: float | int | str | None) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, str)):
        return str(v)
    if not math.isfinite(v):
        raise NonFiniteResultError(f"CSV field would be {v}")
    return f"{v:.10g}"


def _csv_lines(header: str, rows) -> list[str]:
    return [header] + [",".join(_fmt(v) for v in row) for row in rows]


def sweep_csv_lines(cells: list[GridCell]) -> list[str]:
    """One column per GridCell field, in declaration order."""
    return _csv_lines(SWEEP_CSV_HEADER, [astuple(cell) for cell in cells])


def skew_csv_lines(rows: list[SkewTableRow]) -> list[str]:
    values = []
    for r in rows:
        f = r.fit
        values.append((r.C, r.skew, f.orientation, f.theta, f.log_params.mu_X, f.log_params.sigma_X))
    return _csv_lines(SKEW_CSV_HEADER, values)


def qq_csv_lines(points: list[tuple[float, float, float]]) -> list[str]:
    return _csv_lines(QQ_CSV_HEADER, points)


def write_csv(lines: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
