"""Sweep grid determinism, CRN behavior, skew table, QQ export, CSV shape."""
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import cold_provider, unit_spot
from mtgopt import harness
from mtgopt.distfit import (
    LognormalParams,
    ShiftedLognormalFit,
    central_moments,
    fit_shifted_lognormal,
    skewness,
)
from mtgopt.errors import DegenerateSampleError, ValidationError
from mtgopt.harness import (
    QQ_CSV_HEADER,
    SKEW_CSV_HEADER,
    SWEEP_CSV_HEADER,
    BaseParams,
    SweepAxis,
    SweepSpec,
    materialize,
    qq_csv_lines,
    qq_export,
    run_sweep,
    skew_csv_lines,
    skew_table,
    sweep_csv_lines,
    write_csv,
)
from mtgopt import mc_engine, model as model_module, pricer_closed
from mtgopt.mc_engine import crn_delta, mix64, price_mc, simulate_terminal_prices

PACKAGE_ROOT = str(Path(harness.__file__).resolve().parents[1])


def small_spec(**over):
    kw = dict(
        base=BaseParams(seed=12345, n=4000),
        axis1=SweepAxis("K", (99.0, 100.0, 101.0)),
        axis2=SweepAxis("C", (0.5, 3.0)),
    )
    kw.update(over)
    return SweepSpec(**kw)


def test_default_params_values():
    p = BaseParams()
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


def test_delta_sweep_needs_ln_or_mc():
    with pytest.raises(ValidationError, match="delta"):
        small_spec(greek="delta", engines=("SLN",))
    for engines in (("LN",), ("MC",), ("SLN", "LN"), ("SLN", "MC")):
        assert small_spec(greek="delta", engines=engines).engines == engines


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


STRIKES_13 = SweepAxis("K", tuple(97.0 + 0.5 * i for i in range(13)))

# the sweeps of the sample-reuse test: a CRN delta sweep along P0 (every cell
# of a column shares one kept sample of P/P0), CRN delta sweeps along C and
# sigma (one draw, a new duration curve or rate law per row), CRN price
# sweeps along sigma, along 13 strikes and along C (one draw mapped per
# cell), and a sweep without a CRN axis, which shares nothing
REUSE_SWEEPS = {
    "crn_delta_P0": small_spec(
        axis1=SweepAxis("P0", (98.0, 100.0, 102.0)), greek="delta", engines=("LN", "MC"), crn_axis=1
    ),
    "crn_delta_C": small_spec(
        axis1=SweepAxis("C", (0.5, 3.0)),
        axis2=SweepAxis("P0", (99.0, 101.0)),
        greek="delta",
        engines=("MC",),
        crn_axis=1,
    ),
    "crn_delta_sigma": small_spec(
        axis1=SweepAxis("sigma", (0.01, 0.02)),
        axis2=SweepAxis("P0", (99.0, 101.0)),
        base=BaseParams(seed=12345, n=4000, C=3.0),
        greek="delta",
        engines=("MC",),
        crn_axis=1,
    ),
    "crn_price_sigma": small_spec(
        axis1=SweepAxis("sigma", (0.01, 0.02, 0.03)),
        axis2=SweepAxis("K", (99.0, 101.0)),
        base=BaseParams(seed=12345, n=4000, C=3.0),
        crn_axis=1,
    ),
    "crn_price_K": small_spec(axis1=STRIKES_13, axis2=SweepAxis("C", (3.0,)), crn_axis=1),
    "crn_price_C": small_spec(
        axis1=SweepAxis("C", (0.5, 3.0, 30.0)), axis2=SweepAxis("K", (99.0, 100.0, 101.0)), crn_axis=1
    ),
    "free_K": small_spec(),
}


def cell_bits(cells) -> list[tuple]:
    return [tuple(v.hex() if isinstance(v, float) else v for v in astuple(c)) for c in cells]


def reference_seed(spec: SweepSpec, i: int, j: int) -> int:
    # the documented derivation: the cell seed mixes the base seed with the
    # axis indices, minus the CRN axis, and the MC reference mixes in tag 2
    idx = {None: (i, j), 1: (j,), 2: (i,)}[spec.crn_axis]
    return mix64(mix64(spec.base.seed, *idx), 2)


@pytest.mark.parametrize("name", sorted(REUSE_SWEEPS))
def test_sweep_cells_equal_standalone_engine_calls(name):
    spec = REUSE_SWEEPS[name]
    cells = run_sweep(spec, workers=1)
    assert cell_bits(run_sweep(spec, workers=3)) == cell_bits(cells)
    n2 = len(spec.axis2.values)
    for k, cell in enumerate(cells):
        i, j = divmod(k, n2)
        axes = {spec.axis1.name: cell.axis1_value, spec.axis2.name: cell.axis2_value}
        model, dyn, c, cfg = materialize(replace(spec.base, **axes))
        ref = replace(cfg, seed=reference_seed(spec, i, j))
        if spec.greek == "delta":
            # a delta's skew is that of the sample of P/P0 it priced, summed
            # in ascending order
            sample = np.sort(simulate_terminal_prices(unit_spot(model), dyn, c.T, ref))
            want = (crn_delta(model, dyn, c, ref), None)
        else:
            sample = simulate_terminal_prices(model, dyn, c.T, ref)
            res = price_mc(model, dyn, c, ref)
            want = (res.price, res.std_error)
        assert (cell.price_mc, cell.se_mc) == want, (name, k)
        assert cell.skew == skewness(central_moments(sample)), (name, k)


def test_no_state_survives_a_sweep():
    # two sweeps on different seeds, each alone in a fresh interpreter and
    # both in either order in this one, give the same bits
    specs = [replace(REUSE_SWEEPS["crn_delta_P0"], base=BaseParams(seed=s, n=4000)) for s in (3, 4)]
    alone = []
    for spec in specs:
        code = (
            "import sys; from dataclasses import astuple; from mtgopt.harness import *; "
            f"print(repr([astuple(c) for c in run_sweep({spec!r})]))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
        alone.append(proc.stdout)
    for order in ((0, 1), (1, 0)):
        for k in order:
            assert repr([astuple(c) for c in run_sweep(specs[k])]) + "\n" == alone[k]


def test_crn_sweep_memory_does_not_grow_with_the_group_count():
    # along C every strike column shares one sample; each column's sample and
    # kept samples of P/P0 are dropped before the next column draws
    def peak(strikes):
        spec = small_spec(
            base=BaseParams(seed=12345, n=20000),
            axis1=SweepAxis("C", (0.5, 1.0, 2.0, 3.0, 4.0, 6.0)),
            axis2=SweepAxis("K", strikes),
            greek="delta",
            engines=("MC",),
            crn_axis=1,
        )
        cold_provider()
        tracemalloc.start()
        try:
            run_sweep(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak((97.0, 98.0, 99.0, 100.0, 101.0, 102.0)) <= 1.2 * peak((99.0, 101.0))


def test_a_crn_delta_group_along_c_gives_each_curve_s_f_back():
    # along C each cell of a group has a curve of its own, whose f = P/P0 no
    # later cell reads: once given back, neither the provider's slots nor the
    # peak grow with the curvatures (5, 9 and 13 slots of n after 2, 6 and 10
    # curvatures while every f stayed to the group's end)
    n = 20000

    def run(curvatures):
        spec = small_spec(
            base=BaseParams(seed=12345, n=n),
            axis1=SweepAxis("C", curvatures),
            axis2=SweepAxis("P0", (100.0,)),
            engines=("MC",),
            greek="delta",
            crn_axis=1,
        )
        cold_provider()
        tracemalloc.start()
        try:
            cells = run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return len(mc_engine.thread_draws()._slots), peak, [c.price_mc for c in cells]

    runs = [run(tuple(0.5 + 0.5 * i for i in range(count))) for count in (2, 6, 10)]
    assert [slots for slots, _, _ in runs] == [runs[0][0]] * 3
    peaks = [peak for _, peak, _ in runs]
    assert max(peaks) - min(peaks) < n * 8 / 2, [p / (n * 8) for p in peaks]
    # each cell still prices its own curve's f
    assert runs[2][2][:6] == runs[1][2]


def test_sweep_without_a_crn_axis_holds_a_few_arrays_of_n():
    # the provider keeps a cell's two samples in slots of its own and works in
    # a few more; every slot is reused by the next cell, so the peak does not
    # grow with the strike count
    n = 20000
    spec = small_spec(
        base=BaseParams(seed=12345, n=n),
        axis1=SweepAxis("K", tuple(97.0 + 0.5 * i for i in range(13))),
        axis2=SweepAxis("C", (3.0,)),
    )
    cold_provider()
    tracemalloc.start()
    try:
        run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * n * 8, peak / (n * 8)


def crn_delta_sweep(n: int, curvatures: tuple[float, ...]) -> SweepSpec:
    """LN and MC deltas at 12 spots, one CRN group per curvature."""
    return small_spec(
        base=BaseParams(seed=12345, n=n),
        axis1=SweepAxis("P0", tuple(95.0 + i for i in range(12))),
        axis2=SweepAxis("C", curvatures),
        engines=("LN", "MC"),
        greek="delta",
        crn_axis=1,
    )


def test_crn_delta_sweep_reduces_its_base_leg_in_the_provider_slots():
    # a delta group keeps f = P/P0 and its ascending z, and works in two
    # slots: the map and the order check take one, the moments of f both;
    # keeping the log shape (A, B) instead of f would make five arrays of n
    n = 70000
    spec = crn_delta_sweep(n, (3.0,))
    # the first sweep loads the draw's imports, which would dwarf the arrays
    run_sweep(spec)
    cold_provider()
    tracemalloc.start()
    try:
        run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * n * 8, peak / (n * 8)


def counting(calls: dict, name: str, fn):
    """fn, adding one to calls[name] per call."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_crn_delta_sweep_maps_and_reduces_its_sample_once_per_group(monkeypatch):
    # twelve spots read one kept f: the map (log shape, then one exp) and the
    # moments run once per group, not once per spot
    calls = {"log_shape": 0, "exp": 0, "central_moments": 0}

    class CountingNumpy:
        exp = staticmethod(counting(calls, "exp", np.exp))

        def __getattr__(self, name):
            return getattr(np, name)

    for module in (mc_engine, model_module):
        monkeypatch.setattr(module, "log_shape", counting(calls, "log_shape", module.log_shape))
    monkeypatch.setattr(harness, "central_moments", counting(calls, "central_moments", harness.central_moments))
    monkeypatch.setattr(mc_engine, "np", CountingNumpy())
    monkeypatch.setattr(model_module, "np", CountingNumpy())
    cells = run_sweep(crn_delta_sweep(2000, (0.5, 3.0)))
    assert len(cells) == 24
    assert calls == {"log_shape": 2, "exp": 2, "central_moments": 2}


def test_a_crn_delta_group_sorts_z_once_and_reads_each_spot_off_two_binary_searches(monkeypatch):
    # every provider slot logs the ufunc passes, sorts and binary searches
    # over it, and each cell's MC fields log where they start. A group sorts
    # its z once; after its first spot has mapped and reduced the sample,
    # each spot makes two binary searches and two slice sums, the suffix over
    # f > K/P0 and the band's terms, and no pass over n
    log = []

    def plain(a):
        return a.view(np.ndarray) if isinstance(a, Logged) else a

    class Logged(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            arrays = [a for a in (*inputs, *kwargs.get("out", ())) if isinstance(a, np.ndarray)]
            log.append((f"{ufunc.__name__}.{method}", max(a.size for a in arrays)))
            out = kwargs.get("out")
            if out:
                kwargs["out"] = tuple(map(plain, out))
            result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
            if out:
                return out[0] if len(out) == 1 else out
            # what is made from a slot logs too
            return result.view(Logged) if isinstance(result, np.ndarray) else result

        def sort(self, *args, **kwargs):
            log.append(("sort", self.size))
            plain(self).sort(*args, **kwargs)

        def searchsorted(self, *args, **kwargs):
            log.append(("searchsorted", self.size))
            return plain(self).searchsorted(*args, **kwargs)

    class SlotNumpy:
        def empty(self, *args, **kwargs):
            return np.empty(*args, **kwargs).view(Logged)

        def __getattr__(self, name):
            return getattr(np, name)

    mc_fields = harness._mc_fields
    draw = mc_engine._standard_normals

    def spot(*args):
        log.append(("spot", 0))
        return mc_fields(*args)

    def drawing(*args):
        log.append(("draw", 0))
        return draw(*args)

    monkeypatch.setattr(mc_engine, "np", SlotNumpy())
    monkeypatch.setattr(harness, "_mc_fields", spot)
    monkeypatch.setattr(mc_engine, "_standard_normals", drawing)
    n = 2000
    # on a new thread, whose provider makes its slots afresh and dies with it
    with ThreadPoolExecutor(1) as pool:
        cells = pool.submit(run_sweep, crn_delta_sweep(n, (0.5, 3.0))).result()
    assert len(cells) == 24 and log.count(("sort", n)) == 2
    # each group draws its z once, before its first spot: what the draw
    # logs, up to the next spot, is set apart
    spots, drawn, current = [], [], []
    for entry in log:
        if entry in (("spot", 0), ("draw", 0)):
            current = []
            (spots if entry == ("spot", 0) else drawn).append(current)
        else:
            current.append(entry)
    assert len(spots) == 24 and len(drawn) == 2
    # the groups run one after the other, and the first spot of each reads
    # its sample after mapping it
    for k, entries in enumerate(spots):
        reads = entries[entries.index(("searchsorted", n)) :] if k % 12 == 0 else entries
        assert [e for e in reads if e[0] == "searchsorted"] == [("searchsorted", n)] * 2, k
        assert [e[0] for e in reads if e[0].endswith(".reduce")] == ["add.reduce"] * 2, k
        assert all(e[0] in ("searchsorted", "add.reduce") or e[1] <= 10 for e in reads), (k, reads)
        assert all(e[1] < n for e in reads if e[0] == "add.reduce"), (k, reads)


def test_price_sweep_draws_maps_and_reduces_only_its_mc_sample(monkeypatch):
    # SLN prices quadrature moments of P/P0, so a sweep without a CRN axis
    # draws, maps and reduces one sample per cell, the MC reference, and a
    # sweep of SLN alone draws nothing
    calls = {"draw": 0, "log_shape": 0, "central_moments": 0}
    monkeypatch.setattr(mc_engine, "_standard_normals", counting(calls, "draw", mc_engine._standard_normals))
    monkeypatch.setattr(model_module, "log_shape", counting(calls, "log_shape", model_module.log_shape))
    monkeypatch.setattr(harness, "central_moments", counting(calls, "central_moments", harness.central_moments))
    spec = small_spec(
        base=BaseParams(seed=12345, n=2000),
        axis1=SweepAxis("K", tuple(97.0 + 0.5 * i for i in range(13))),
        axis2=SweepAxis("C", (3.0,)),
    )
    cells = run_sweep(spec)
    assert calls == {"draw": 13, "log_shape": 13, "central_moments": 13}

    def no_draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(mc_engine, "_standard_normals", no_draw)
    sln = run_sweep(replace(spec, engines=("SLN",)))
    assert [c.price_sln for c in sln] == [c.price_sln for c in cells]
    assert all(c.price_mc is None and c.skew is None for c in sln)


def test_a_crn_price_sweep_holds_a_few_arrays_of_n():
    # the column's z stays in a slot of its own for the group; each strike's
    # price sample is its own array, and its map, payoff and moments run in
    # the work slots after z
    n = 20000
    spec = small_spec(base=BaseParams(seed=12345, n=n), axis1=STRIKES_13, axis2=SweepAxis("C", (3.0,)), crn_axis=1)
    cold_provider()
    tracemalloc.start()
    try:
        run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * n * 8, peak / (n * 8)


def test_a_crn_price_group_across_curves_keeps_no_sample_per_curve():
    # along C every cell prices a sample of its own, so the group keeps only
    # its z, and the peak does not grow with the curvatures in the group
    def peak(curvatures):
        spec = small_spec(
            base=BaseParams(seed=12345, n=20000),
            axis1=SweepAxis("C", curvatures),
            axis2=SweepAxis("K", (100.0,)),
            engines=("MC",),
            crn_axis=1,
        )
        cold_provider()
        tracemalloc.start()
        try:
            run_sweep(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak((0.5, 1.0, 2.0, 3.0, 4.0, 6.0)) <= 1.2 * peak((0.5, 1.0))


def test_a_sweep_runs_each_closed_form_once_per_curve(monkeypatch):
    # the quadrature moments, the SLN fit and the LN law depend on neither
    # the strike nor the spot: a 13-strike sweep runs each once, and a
    # 12-spot delta sweep runs the LN law once per curvature
    calls = {"quadrature_moments": 0, "fit_shifted_lognormal": 0, "ln_law": 0}
    for name in ("quadrature_moments", "fit_shifted_lognormal"):
        monkeypatch.setattr(harness, name, counting(calls, name, getattr(harness, name)))
    monkeypatch.setattr(pricer_closed, "_matched_law", counting(calls, "ln_law", pricer_closed._matched_law))
    cells = run_sweep(small_spec(base=BaseParams(seed=5, n=200), axis1=STRIKES_13, axis2=SweepAxis("C", (3.0,))))
    assert len(cells) == 13
    assert calls == {"quadrature_moments": 1, "fit_shifted_lognormal": 1, "ln_law": 1}
    calls.update(dict.fromkeys(calls, 0))
    cells = run_sweep(crn_delta_sweep(200, (0.5, 3.0)))
    assert len(cells) == 24
    assert calls == {"quadrature_moments": 0, "fit_shifted_lognormal": 0, "ln_law": 2}


def test_a_sweep_builds_no_bundle_per_cell(monkeypatch):
    # a cell's blocks come from the base's leaf values with the two axis
    # leaves read over them, not from a bundle of its own
    specs = [crn_delta_sweep(200, (0.5, 3.0)), small_spec(base=BaseParams(seed=5, n=200))]
    calls = {"BaseParams": 0}
    monkeypatch.setattr(BaseParams, "__init__", counting(calls, "BaseParams", BaseParams.__init__))
    for spec in specs:
        assert len(run_sweep(spec)) == len(spec.axis1.values) * len(spec.axis2.values)
    assert calls == {"BaseParams": 0}


def test_a_sweep_builds_each_distinct_block_and_calibration_once(monkeypatch):
    # a cell's blocks differ from the base only in the leaves of its two axes,
    # so a sweep builds and validates each distinct block once, and calibrates
    # once per distinct duration curve and market
    calls = dict.fromkeys([*harness.BLOCKS, "calibrate"], 0)
    monkeypatch.setattr(harness, "BLOCKS", {b: counting(calls, b, cls) for b, cls in harness.BLOCKS.items()})
    calibrate = model_module.ModelSpec.calibrate.__func__
    monkeypatch.setattr(model_module.ModelSpec, "calibrate", classmethod(counting(calls, "calibrate", calibrate)))
    strikes = SweepAxis("K", tuple(97.0 + 0.5 * i for i in range(13)))
    curvatures = SweepAxis("C", (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 15.0, 20.0, 30.0, 40.0))
    one = dict(model=1, market=1, dynamics=1, contract=1, mc=1)
    for spec, want in [
        (crn_delta_sweep(200, (3.0,)), {**one, "market": 12, "calibrate": 12}),
        (small_spec(base=BaseParams(seed=5, n=200), axis1=strikes, axis2=SweepAxis("C", (3.0,))),
         {**one, "contract": 13, "calibrate": 1}),
        (small_spec(base=BaseParams(seed=5, n=200), axis1=strikes, axis2=curvatures),
         {**one, "model": 12, "contract": 13, "calibrate": 12}),
    ]:
        calls.update(dict.fromkeys(calls, 0))
        cells = run_sweep(spec)
        assert len(cells) == len(spec.axis1.values) * len(spec.axis2.values)
        assert calls == want, spec.axis1.name


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults as Linux counts them")
def test_warm_sweep_reuses_its_provider_slots_instead_of_faulting_in_new_pages():
    # every n-sized stage of a cell runs in the sweep provider's slots; an
    # array per stage would fault in about 1500 pages per cell at n = 70000
    resource = pytest.importorskip("resource")
    strikes = tuple(97.0 + 0.5 * i for i in range(13))
    spec = small_spec(
        base=BaseParams(seed=12345, n=70000), axis1=SweepAxis("K", strikes), axis2=SweepAxis("C", (30.0,))
    )
    run_sweep(spec)
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_sweep(spec)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert min(faults) <= 150 * len(strikes), faults


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults as Linux counts them")
def test_a_repeated_crn_delta_sweep_runs_in_the_pages_of_the_last():
    # the thread's provider keeps its slots between sweeps; a provider per
    # sweep faulted its four slots of n floats in afresh, 549 minor faults
    resource = pytest.importorskip("resource")
    spec = crn_delta_sweep(70000, (3.0,))
    run_sweep(spec)
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_sweep(spec)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert min(faults) <= 0.05 * 549, faults


def test_a_repeated_crn_delta_sweep_allocates_no_array_of_n():
    n = 70000
    spec = crn_delta_sweep(n, (3.0,))
    run_sweep(spec)
    tracemalloc.start()
    try:
        run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 8, peak / (n * 8)


SKEW_CURVATURES, SKEW_BASE = [0.5, 3.0, 30.0], BaseParams(n=70000, seed=3)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults as Linux counts them")
def test_a_repeated_skew_table_runs_in_the_pages_of_the_last():
    # each row maps and reduces in the provider's work slots; a new price
    # array and two moment temporaries per row took 1134 minor faults a table
    resource = pytest.importorskip("resource")
    skew_table(SKEW_CURVATURES, SKEW_BASE)
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        skew_table(SKEW_CURVATURES, SKEW_BASE)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert min(faults) <= 0.05 * 1134, faults


def test_a_repeated_skew_table_allocates_no_array_of_n():
    first = skew_table(SKEW_CURVATURES, SKEW_BASE)
    tracemalloc.start()
    try:
        again = skew_table(SKEW_CURVATURES, SKEW_BASE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SKEW_BASE.n * 8, peak / (SKEW_BASE.n * 8)
    assert repr(again) == repr(first)


def test_a_sweep_that_raises_keeps_nothing_and_the_next_sweep_is_unchanged():
    # at P0 = 1e-150 a price sample's m2^(3/2) underflows, so the first cell
    # raises with its z kept in the thread's provider
    at = dict(seed=12345, n=200)
    with pytest.raises(DegenerateSampleError, match="underflows"):
        run_sweep(small_spec(base=BaseParams(P0=1e-150, **at), crn_axis=1))
    draws = mc_engine.thread_draws()
    assert (draws._kept, draws._held) == ({}, 0)
    spec = small_spec(base=BaseParams(**at), crn_axis=1)
    after = repr([astuple(c) for c in run_sweep(spec)])
    cold_provider()
    assert after == repr([astuple(c) for c in run_sweep(spec)])


def test_threads_sweep_on_providers_of_their_own():
    # two threads sweep at once, each on its own provider, and every cell has
    # the bits of the same sweep run alone on this thread
    specs = [
        small_spec(base=BaseParams(seed=1, n=4000)),
        small_spec(base=BaseParams(seed=2, n=4000), crn_axis=1),
        small_spec(base=BaseParams(seed=3, n=4000), crn_axis=2),
        crn_delta_sweep(4000, (0.5, 3.0)),
        small_spec(base=BaseParams(seed=5, n=3000)),
        crn_delta_sweep(3000, (3.0,)),
    ]
    sequential = [repr([astuple(c) for c in run_sweep(spec)]) for spec in specs]
    both_started = threading.Barrier(2, timeout=60)

    def run(batch):
        both_started.wait()
        return [repr([astuple(c) for c in run_sweep(spec)]) for spec in batch], mc_engine.thread_draws()

    with ThreadPoolExecutor(2) as pool:
        (cells_a, draws_a), (cells_b, draws_b) = pool.map(run, (specs[:3], specs[3:]))
    assert cells_a + cells_b == sequential
    assert draws_a is not draws_b
    assert mc_engine.thread_draws() not in (draws_a, draws_b)


def test_workers_below_one_raise_on_a_thread_that_has_a_provider():
    run_sweep(small_spec())
    with pytest.raises(ValidationError, match=r"^workers must be >= 1, got 0$"):
        run_sweep(small_spec(), workers=0)


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
    # crn_axis=2 drops the axis2 index instead: with strikes on axis2, every
    # K in a given C row sees the same draw, so MC falls strictly along K
    rows = run_sweep(
        small_spec(axis1=SweepAxis("C", (0.5, 3.0)), axis2=SweepAxis("K", (99.0, 100.0, 101.0)), crn_axis=2)
    )
    by_row = {}
    for c in rows:
        by_row.setdefault(c.axis1_value, set()).add(c.skew)
    assert [len(s) for s in by_row.values()] == [1, 1]
    assert rows[0].price_mc > rows[1].price_mc > rows[2].price_mc


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
    # SLN grades against an independent reference: it prices exact moments,
    # not a draw, so SLN and MC disagree at noise scale but not identically
    cells = run_sweep(small_spec())
    assert all(c.price_sln != c.price_mc for c in cells)


def test_skew_table_values_and_flip():
    rows = skew_table([0.5, 3.0, 6.0, 10.0, 30.0], BaseParams(n=70000, seed=12345))
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
    full = skew_table([0.5, 3.0], BaseParams(n=20000, seed=777))
    solo = skew_table([3.0], BaseParams(n=20000, seed=777))
    a, b = full[1], solo[0]
    assert a.skew == b.skew
    assert a.fit.theta == b.fit.theta
    assert a.fit.log_params.mu_X == b.fit.log_params.mu_X
    assert a.fit.log_params.sigma_X == b.fit.log_params.sigma_X


def test_skew_table_empty_rejected():
    with pytest.raises(ValidationError):
        skew_table([], BaseParams(n=1000, seed=1))


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

    rows = skew_table([3.0], BaseParams(n=5000, seed=9))
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
