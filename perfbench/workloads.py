"""The benchmark's workloads: inputs made from a seed, one op, and its check.

Each workload object is built from a workload seed. ``prepare(i)`` returns
op i as a zero-argument callable (building its inputs is not timed),
``check(i, out)`` returns None or the reason the output is wrong, and
``fingerprint(out)`` gives the exact bits of an output so that a rerun can be
compared with it.

Op i of a sweep gets its own package seed, derived from the workload seed and
i, so no sample can be shared between ops; sharing can only happen inside one
op, where a user's sweep would share too.

Program functions are looked up on their modules at call time, so the
tracer's wrappers see every call the benchmark makes.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

import oracle

SRC = Path(__file__).resolve().parent.parent / "src"

CURVATURES = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 15.0, 20.0, 30.0, 40.0)
LOW_CURVATURES = CURVATURES[:7]
STRIKES = tuple(97.0 + 0.5 * i for i in range(13))
SPOTS = tuple(float(p) for p in range(95, 107))
N_DRAWS = 70000

# the paper's parameter bundle, passed to the package explicitly
PARAMS = dict(L=1.0, U=9.0, x0=0.055, P0=100.0, r0=0.01, mu=0.0, sigma=0.02, K=100.0,
              T=0.25, r_f=0.0209, bump=0.0001)

# an MC estimate further than this many standard errors from the oracle fails
MC_SE_LIMIT = 6.0
# the SLN law's mean is its fit sample's mean, within ~1e-4 of the exact E[P]
SLN_MEAN_SLACK = 1e-3
# LN bounds hold exactly; this absorbs rounding between two implementations
LN_SLACK = 1e-9

_MASK64 = (1 << 64) - 1


def op_seed(seed: int, i: int) -> int:
    """Splitmix64 of (seed, i): a distinct 64-bit package seed per op."""
    h = (seed * 0x9E3779B97F4A7C15 + i + 1) & _MASK64
    for _ in range(2):
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def oracle_model(C: float, P0: float) -> oracle.Model:
    p = PARAMS
    return oracle.Model(p["L"], p["U"], C, p["x0"], P0, p["r0"], p["mu"], p["sigma"], p["T"], p["r_f"])


class Oracle:
    """Cached oracle values keyed by the grid point."""

    def __init__(self, n: int):
        self.n = n
        self._cache: dict[tuple, float | tuple[float, float]] = {}

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def call(self, C, K, P0):
        return self._get(("call", C, K, P0), lambda: oracle.call(oracle_model(C, P0), K, self.n))

    def delta(self, C, K, P0):
        return self._get(
            ("delta", C, K, P0),
            lambda: oracle.crn_delta(oracle_model(C, P0), K, PARAMS["bump"], self.n),
        )

    def mean(self, C, P0):
        return self._get(("mean", C, P0), lambda: oracle.mean_price(oracle_model(C, P0)))

    def ln_mean(self, C, P0):
        return self._get(("ln_mean", C, P0), lambda: oracle.ln_mean_price(oracle_model(C, P0)))


def _bits(values) -> tuple:
    return tuple(None if v is None else float(v).hex() for v in values)


def _outside(value: float, lo: float, hi: float) -> bool:
    return not (math.isfinite(value) and lo <= value <= hi)


class _Sweep:
    """One op is one run_sweep call over ``grid`` at one curvature."""

    axis_name: str
    engines: tuple[str, ...]
    greek: str | None
    crn_axis: int | None
    fields: tuple[str, ...]
    curvatures: tuple[float, ...]
    _all_fields = ("price_mc", "se_mc", "price_sln", "price_ln", "rel_diff_sln_pct",
                   "rel_diff_ln_pct", "skew")

    def __init__(self, seed: int, n: int = N_DRAWS, grid: tuple[float, ...] | None = None):
        from mtgopt import harness

        self.harness = harness
        self.seed = seed
        self.grid = tuple(grid or self.default_grid)
        self.base = {k: v for k, v in PARAMS.items() if k != self.axis_name}
        self.base["n"] = n
        self.axis1 = harness.SweepAxis(self.axis_name, self.grid)
        self.axes2 = [harness.SweepAxis("C", (c,)) for c in self.curvatures]
        self.offset = seed % len(self.curvatures)
        self.oracle = Oracle(n)

    def curvature(self, i: int) -> float:
        return self.curvatures[(self.offset + i) % len(self.curvatures)]

    def spec(self, i: int):
        h = self.harness
        return h.SweepSpec(
            base=h.BaseParams(seed=op_seed(self.seed, i), **self.base),
            axis1=self.axis1,
            axis2=self.axes2[(self.offset + i) % len(self.curvatures)],
            engines=self.engines,
            greek=self.greek,
            crn_axis=self.crn_axis,
        )

    def prepare(self, i: int):
        spec = self.spec(i)
        h = self.harness
        return lambda: h.run_sweep(spec, workers=1)

    def fingerprint(self, cells) -> tuple:
        return tuple(
            _bits([c.axis1_value, c.axis2_value] + [getattr(c, f) for f in self._all_fields])
            for c in cells
        )

    def check(self, i: int, cells) -> str | None:
        C = self.curvature(i)
        if len(cells) != len(self.grid):
            return f"{len(cells)} cells, expected {len(self.grid)}"
        for cell, x in zip(cells, self.grid):
            if cell.axis1_value != x or cell.axis2_value != C:
                return f"cell at ({cell.axis1_value}, {cell.axis2_value}), expected ({x}, {C})"
            for f in self._all_fields:
                v = getattr(cell, f)
                if (v is None) == (f in self.fields):
                    return f"{f}={v!r} at {self.axis_name}={x}, C={C}"
                if v is not None and not math.isfinite(v):
                    return f"{f}={v!r} is not finite at {self.axis_name}={x}, C={C}"
            K, P0 = (x, PARAMS["P0"]) if self.axis_name == "K" else (PARAMS["K"], x)
            reason = self.check_cell(cell, C, K, P0)
            if reason:
                return f"{reason} at {self.axis_name}={x}, C={C}"
        return None


class SweepRef(_Sweep):
    """The paper's accuracy grid: 13 strikes at one curvature, SLN, LN and MC."""

    axis_name = "K"
    default_grid = STRIKES
    curvatures = CURVATURES
    engines = ("SLN", "LN", "MC")
    greek = None
    crn_axis = None
    fields = _Sweep._all_fields

    def check_cell(self, cell, C, K, P0) -> str | None:
        exact, se = self.oracle.call(C, K, P0)
        if abs(cell.price_mc - exact) > MC_SE_LIMIT * se:
            return f"MC price {cell.price_mc} is {abs(cell.price_mc - exact) / se:.1f} SE from {exact}"
        df = math.exp(-PARAMS["r_f"] * PARAMS["T"])
        if _outside(cell.price_sln, 0.0, df * self.oracle.mean(C, P0) * (1.0 + SLN_MEAN_SLACK)):
            return f"SLN price {cell.price_sln} outside [0, df E[P]]"
        if _outside(cell.price_ln, 0.0, df * self.oracle.ln_mean(C, P0) * (1.0 + LN_SLACK)):
            return f"LN price {cell.price_ln} outside [0, df E_LN[P]]"
        return None


class SweepCrnDelta(_Sweep):
    """Delta over 12 spots at one low curvature, LN and MC, one sample per op."""

    axis_name = "P0"
    default_grid = SPOTS
    curvatures = LOW_CURVATURES
    engines = ("LN", "MC")
    greek = "delta"
    crn_axis = 1
    fields = ("price_mc", "price_ln", "rel_diff_ln_pct", "skew")

    def check_cell(self, cell, C, K, P0) -> str | None:
        exact, se = self.oracle.delta(C, K, P0)
        if abs(cell.price_mc - exact) > MC_SE_LIMIT * se:
            return f"MC delta {cell.price_mc} is {abs(cell.price_mc - exact) / se:.1f} SE from {exact}"
        df = math.exp(-PARAMS["r_f"] * PARAMS["T"])
        if _outside(cell.price_ln, 0.0, df * self.oracle.ln_mean(C, P0) / P0 * (1.0 + LN_SLACK)):
            return f"LN delta {cell.price_ln} outside [0, df E_LN[P] / P0]"
        return None


class ClosedForm:
    """price_ln, delta_ln and gamma_ln at one of the 13 x 12 (K, C) points.

    The points are calibrated during set-up; the seed permutes their order.
    """

    def __init__(self, seed: int, n: int = N_DRAWS, grid: tuple[float, ...] | None = None):
        from mtgopt import model, pricer_closed

        self.pricer = pricer_closed
        p = PARAMS
        self.points = []
        for C in CURVATURES:
            spec = model.ModelSpec.calibrate(
                model.DurationParams(L=p["L"], U=p["U"], C=C, x0=p["x0"]),
                model.MarketState(P0=p["P0"], r0=p["r0"]),
            )
            dyn = model.RateDynamics(mu=p["mu"], sigma=p["sigma"])
            for K in grid or STRIKES:
                self.points.append((C, K, spec, dyn, model.OptionContract(K=K, T=p["T"], r_f=p["r_f"])))
        self.order = np.random.default_rng(seed).permutation(len(self.points))
        self.oracle = Oracle(n)

    def point(self, i: int):
        return self.points[self.order[i % len(self.points)]]

    def prepare(self, i: int):
        _, _, spec, dyn, c = self.point(i)
        pc = self.pricer
        return lambda: (pc.price_ln(spec, dyn, c), pc.delta_ln(spec, dyn, c), pc.gamma_ln(spec, dyn, c))

    def fingerprint(self, out) -> tuple:
        res, delta, gamma = out
        return _bits([res.price, delta, gamma]) + (res.method, res.warning)

    def check(self, i: int, out) -> str | None:
        C, K, _, _, _ = self.point(i)
        res, delta, gamma = out
        P0 = PARAMS["P0"]
        bound = math.exp(-PARAMS["r_f"] * PARAMS["T"]) * self.oracle.ln_mean(C, P0) * (1.0 + LN_SLACK)
        if _outside(res.price, 0.0, bound):
            return f"LN price {res.price} outside [0, df E_LN[P]] at K={K}, C={C}"
        if _outside(delta, 0.0, bound / P0):
            return f"LN delta {delta} outside [0, df E_LN[P] / P0] at K={K}, C={C}"
        if _outside(gamma, 0.0, math.inf):
            return f"LN gamma {gamma} is negative or not finite at K={K}, C={C}"
        return None


WORKLOADS = {
    "sweep_ref": SweepRef,
    "sweep_crn_delta": SweepCrnDelta,
    "closed_form": ClosedForm,
}


def require_src() -> None:
    """Put the checkout's src/ first on sys.path; exit non-zero without it.

    The package is imported from the checkout's source only, never from an
    installed copy.
    """
    if not (SRC / "mtgopt" / "__init__.py").is_file():
        sys.exit(f"no package source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def build(name: str, seed: int, **kw):
    """The workload called ``name``; exits non-zero for an unknown name."""
    if name not in WORKLOADS:
        sys.exit(f"unknown workload {name!r}; choose one of {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, **kw)
