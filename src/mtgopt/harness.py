"""Experiment harness: parameter bundle, sensitivity sweeps, skew table, QQ export.

BaseParams holds every parameter leaf; materialize builds from it the BLOCKS
dataclasses, which validate them. A sweep cell reads its two axis leaves over
the base bundle's leaf values, block by block, and builds no bundle of its
own.

Sweeps evaluate a two-axis grid of cells. Per-cell seeds derive from the base
seed and the axis indices through a 64-bit mix, so cells are independent yet
reproducible; crn_axis drops the chosen axis index from the hash so one rate
sample is reused along that axis (for exactly-monotone curves). A cell's MC
reference mixes its cell seed once more. Only MC draws: SLN prices exact
quadrature moments of P/P0 and LN its matched law, so neither depends on n
or the seed, and no engine is graded against a draw of its own.

run_sweep states the stages a sweep runs and how often each runs.

CSV output is UTF-8 with LF line endings, '.' decimals, a mandatory header,
and 10 significant digits; blank fields mean "engine not requested" (or, for
rel-diff fields, an MC price too small to divide by). A NaN or infinite field
raises NonFiniteResultError instead of being written.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .distfit import ShiftedLognormalFit, central_moments, check_moment_count
from .distfit import fit_shifted_lognormal, skewness
from .errors import NonFiniteResultError, ValidationError
from .mc_engine import (
    DEFAULT_SEED,  # noqa: F401  re-exported: the seed of every default bundle
    MAX_FLOATS,
    Draws,
    McConfig,
    crn_sample,
    delta_on_sample,
    mix64,
    naming_leaves,
    ndtri,
    price_mc,
    simulate_terminal_prices,
    thread_draws,
)
from .model import DurationParams, MarketState, ModelSpec, OptionContract, RateDynamics
from .pricer_closed import bs_call, delta_from_kernel, ln_kernel, price_from_fit, quadrature_moments

# sub-seed tag of a cell's MC reference sample
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

# config block name -> its leaf names, in declaration order
BLOCK_LEAVES: dict[str, tuple[str, ...]] = {
    block: tuple(f.name for f in fields(cls)) for block, cls in BLOCKS.items()
}

# leaf name -> its block and its place among the block's leaves
LEAF_AT = {leaf: (block, i) for block, leaves in BLOCK_LEAVES.items() for i, leaf in enumerate(leaves)}


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
        if not 1 <= count <= MAX_FLOATS:
            raise ValidationError(f"axis needs 1 to {MAX_FLOATS} points, got count={count}")
        # NaN bounds pass through to the per-value finiteness check
        if any(math.isinf(x) for x in (start, stop, stop - start)):
            raise ValidationError(
                f"axis {name} needs a finite start, stop and stop - start, got {start}:{stop}"
            )
        # np.linspace gives one point as start alone; NaN passes on as above
        if count == 1 and abs(stop - start) > 0.0:
            raise ValidationError(f"axis {name} has one point, so it needs start = stop, got {start}:{stop}")
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


def _leaf_values(bundle: BaseParams) -> dict[str, tuple]:
    """The bundle's leaf values, one tuple per block of BLOCK_LEAVES."""
    return {block: tuple(getattr(bundle, leaf) for leaf in leaves) for block, leaves in BLOCK_LEAVES.items()}


def _once(made: dict, key: tuple, make):
    """What make() returns, made the first time key is asked for in made."""
    if key not in made:
        made[key] = make()
    return made[key]


def _build(values: dict[str, tuple], made: dict) -> tuple[ModelSpec, RateDynamics, OptionContract, McConfig]:
    """The BLOCKS objects of per-block leaf tuples and their calibration, each
    distinct one looked up in made and built there the first time."""
    block, pos = LEAF_AT["C"]
    if values[block][pos] is None:
        raise ValidationError("curvature C must be set (by config or sweep axis)")
    dur, market, dyn, contract, cfg = (
        _once(made, (block, leaves), lambda: BLOCKS[block](*leaves)) for block, leaves in values.items()
    )
    spec = _once(made, ("spec", id(dur), id(market)), lambda: ModelSpec.calibrate(dur, market))
    return spec, dyn, contract, cfg


def materialize(bundle: BaseParams) -> tuple[ModelSpec, RateDynamics, OptionContract, McConfig]:
    """Build and validate every BLOCKS object from the bundle's leaves."""
    return _build(_leaf_values(bundle), {})


def _cell_seed(spec: SweepSpec, i: int, j: int) -> int:
    if spec.crn_axis == 1:
        return mix64(spec.base.seed, j)
    if spec.crn_axis == 2:
        return mix64(spec.base.seed, i)
    return mix64(spec.base.seed, i, j)


def _mc_fields(
    spec: SweepSpec, curve: tuple, model: ModelSpec, dyn: RateDynamics, c: OptionContract, cfg: McConfig,
    draws: Draws,
) -> dict[str, float | None]:
    """The MC engine's fields; skew describes the sample MC priced: for a
    delta P/P0, kept with its skew for the group's cells on the curve."""
    if spec.greek == "delta":

        def sample() -> tuple[np.ndarray, float]:
            f = crn_sample(model, dyn, c.T, cfg, draws)
            with naming_leaves("a moment of P/P0", model, dyn, c.T, cfg.n, spot=False):
                return f, skewness(central_moments(f, draws.work(2, cfg.n)))

        f, skew = draws.keep(("delta", *curve), sample)
        return {"price_mc": delta_on_sample(f, c, model.market.P0, cfg.bump), "skew": skew}
    res = price_mc(model, dyn, c, cfg, draws)
    with naming_leaves("a moment of P", model, dyn, c.T, cfg.n):
        skew = skewness(central_moments(res.diagnostics, draws.work(2, cfg.n)))
    return {"price_mc": res.price, "se_mc": res.std_error, "skew": skew}


def _curve(built: tuple) -> tuple:
    """The key of a cell's law of P/P0. Blocks are built once per sweep, so
    ids tell the duration curves and rate laws apart; r0 and T complete it."""
    model, dyn, c, _ = built
    return (id(model.duration), model.market.r0, id(dyn), c.T)


def _price_cell(
    spec: SweepSpec, built: tuple, ref: McConfig, draws: Draws, made: dict
) -> dict[str, float | None]:
    """One cell's fields from its materialized (model, dyn, contract) and the
    config of its group's MC reference sample. made, the sweep's memo of
    blocks, also keeps the closed forms that no strike or spot enters, the
    SLN fit and the LN law, by curve and rate law."""
    model, dyn, c, _ = built
    P0 = model.market.P0
    curve = _curve(built)
    out: dict[str, float | None] = {}
    if ENGINE_MC in spec.engines:
        out.update(_mc_fields(spec, curve, model, dyn, c, ref, draws))
    if ENGINE_SLN in spec.engines and spec.greek is None:
        fit = _once(made, ("SLN", *curve), lambda: fit_shifted_lognormal(quadrature_moments(model, dyn, c.T)))
        out["price_sln"] = P0 * price_from_fit(fit, c, P0)
    if ENGINE_LN in spec.engines:
        m1, w = _once(made, ("LN", *curve), lambda: ln_kernel(model, dyn, c.T))
        k = c.K / P0
        out["price_ln"] = delta_from_kernel(m1, w, k, c.df) if spec.greek == "delta" else P0 * bs_call(m1, w, k, c.df)
    mc = out.get("price_mc")
    if mc is not None and mc > REL_DIFF_FLOOR:
        if out.get("price_sln") is not None:
            out["rel_diff_sln_pct"] = (out["price_sln"] - mc) * 100.0 / mc
        if out.get("price_ln") is not None:
            out["rel_diff_ln_pct"] = (out["price_ln"] - mc) * 100.0 / mc
    return out


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[GridCell]:
    """Evaluate the grid over axis1 x axis2, returned row-major; deterministic in seeds.

    Every cell is validated before anything is drawn, each distinct block and
    calibration once per sweep. The cells that share a cell seed (a seed
    group) are then priced together on one MC reference config and the
    thread's provider, and each stage runs once per input it depends on:
    - within a group each (seed, n) is drawn once;
    - the MC delta cells on one duration curve and rate law share one kept
      ascending sample of P/P0 and its skew, whatever their spot, and each
      spot reads its delta off it with two binary searches. A delta group
      draws its z first and gives each curve's f back once the last cell on
      that curve is priced. An MC price cell maps and reduces a price sample
      of its own, which nothing keeps;
    - the SLN fit of the quadrature moments and the LN law, which no strike
      or spot enters, run once per curve and rate law in the sweep, kept in
      the same memo as the blocks, and a cell forms only its kernel inputs.
      A sweep keeps only the LN price, so it runs no regime check.
    The provider releases what a group kept before the next group draws, and
    once more when the sweep ends, raised or not.
    """
    a1, a2 = spec.axis1, spec.axis2
    base = _leaf_values(spec.base)
    at = [LEAF_AT[a1.name], LEAF_AT[a2.name]]
    points = [(i, j, v1, v2) for i, v1 in enumerate(a1.values) for j, v2 in enumerate(a2.values)]
    made: dict = {}
    built = []
    for _, _, v1, v2 in points:
        values = dict(base)
        for (block, pos), v in zip(at, (v1, v2)):
            leaves = values[block]
            values[block] = (*leaves[:pos], v, *leaves[pos + 1 :])
        built.append(_build(values, made))
    groups: dict[int, list[int]] = {}
    for k, (i, j, _, _) in enumerate(points):
        groups.setdefault(_cell_seed(spec, i, j), []).append(k)
    # no axis is an mc leaf, so every cell shares one config
    cfg = built[0][3]
    keeps_f = spec.greek == "delta" and ENGINE_MC in spec.engines
    if keeps_f:
        check_moment_count(cfg.n)
    refs = {seed: replace(cfg, seed=mix64(seed, _REF_TAG)) for seed in groups}
    vals: dict[int, dict[str, float | None]] = {}
    draws = thread_draws(workers)
    try:
        for seed, group in groups.items():
            draws.release()
            if keeps_f:
                # z first, so each curve's f lies in the slots above it
                draws.descending_normals(refs[seed].seed, cfg.n)
            above_z = draws.mark()
            last = {_curve(built[k]): k for k in group}
            for k in group:
                vals[k] = _price_cell(spec, built[k], refs[seed], draws, made)
                if keeps_f and last[_curve(built[k])] == k:
                    # no later cell of the group reads this curve's f
                    draws.release(above_z)
    finally:
        draws.release()
    return [GridCell(a1.name, v1, a2.name, v2, **vals[k]) for k, (_, _, v1, v2) in enumerate(points)]


def skew_table(curvatures: list[float], base: BaseParams, workers: int = 1) -> list[SkewTableRow]:
    """One row per curvature, all rows driven by ONE rate sample (base.n, base.seed).

    The terminal rate law does not depend on C, so a single seeded sample maps
    through every curvature's price curve; rows are directly comparable.
    """
    if not curvatures:
        raise ValidationError("curvatures must be non-empty")
    built = [materialize(replace(base, C=c_val)) for c_val in curvatures]
    draws = thread_draws(workers)
    rows = []
    try:
        for c_val, (model, dyn, contract, cfg) in zip(curvatures, built):
            # z is drawn into its own slot before the row takes the two after it
            draws.normals(cfg.seed, cfg.n)
            prices, work = draws.work(2, cfg.n)
            simulate_terminal_prices(model, dyn, contract.T, cfg, draws, (prices, work))
            with naming_leaves("a moment of P", model, dyn, contract.T, cfg.n):
                fit_input = central_moments(prices, (work, prices))
                rows.append(SkewTableRow(C=c_val, skew=skewness(fit_input), fit=fit_shifted_lognormal(fit_input)))
    finally:
        draws.release()
    return rows


def check_quantile_count(quantile_count: int) -> None:
    """A QQ export takes 2 to MAX_FLOATS quantiles."""
    if not 2 <= quantile_count <= MAX_FLOATS:
        raise ValidationError(f"quantile count must be 2 to {MAX_FLOATS}, got {quantile_count}")


def qq_export(
    sample, fit: ShiftedLognormalFit, quantile_count: int
) -> list[tuple[float, float, float]]:
    """(p, empirical, fitted) at p = (j-0.5)/quantile_count.

    Empirical quantiles interpolate order statistics at plotting positions
    (i-0.5)/n; fitted quantiles are analytic: theta + o exp(mu_X + sigma_X
    ndtri(q)) with q = p for orientation o = +1 and q = 1-p for o = -1, with
    the draw's ndtri.
    """
    check_quantile_count(quantile_count)
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
