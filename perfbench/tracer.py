"""Spans around every public function of the package's layers.

``Tracer.install()`` wraps each public function of the layer modules at every
name it is bound to in the package: ``from .mc_engine import price_mc`` in
``harness`` and the ``model_price`` aliases are bindings of their own, and a
call through any of them is traced. ``ModelSpec.calibrate`` is a classmethod
and is wrapped on the class.

Spans live in flat in-memory arrays (name, start, end, parent, op) while the
run lasts; ``write`` saves them and ``metrics`` derives self times from them.
A span's self time is its duration minus the durations of its direct
children. The benchmark opens one ``op`` span around each op, so the op's own
self time is the time spent outside every wrapped function.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("model", "mc_engine", "distfit", "pricer_closed", "harness")
OP = "op"

# sub-layer groups by qualified function name; match_two_lognormal_sum lives
# in distfit but only the LN engine calls it
GROUPS = {
    "mc_engine.draw": ("mc_engine.simulate_terminal_rates", "mc_engine.simulate_terminal_prices"),
    "mc_engine.payoff": ("mc_engine.price_mc", "mc_engine.delta_mc"),
    "model.price": ("model.price", "model.log_price"),
    "distfit.moments": ("distfit.central_moments", "distfit.skewness"),
    "pricer_closed.ln": (
        "pricer_closed.ln_terminal_params",
        "pricer_closed.price_ln",
        "pricer_closed.delta_ln",
        "pricer_closed.gamma_ln",
        "distfit.match_two_lognormal_sum",
    ),
    "pricer_closed.sln": (
        "pricer_closed.price_sln",
        "pricer_closed.price_from_fit",
        "pricer_closed.kernel_for_fit",
    ),
    "pricer_closed.bs": ("pricer_closed.bs_call", "pricer_closed.bs_put"),
}

# counted calls: metric prefix -> qualified function name
CALLS = {
    "mc_engine.draw": "mc_engine.simulate_terminal_rates",
    "model.price": "model.price",
    "model.calibrate": "model.ModelSpec.calibrate",
    "distfit.moments": "distfit.central_moments",
    "distfit.fit": "distfit.fit_shifted_lognormal",
    "pricer_closed.ln_law": "pricer_closed.ln_terminal_params",
}


class Tracer:
    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.names: list[str] = [OP]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False
        self.normals = 0
        self.draw_keys: set[tuple[int, int]] = set()
        self.elements = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, fn):
        """Call fn inside an ``op`` span with tracing on."""
        self.op_id = op_id
        self.active = True
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)
            self.active = False

    @property
    def full(self) -> bool:
        return len(self.name) >= self.max_spans

    # -- wrapping --------------------------------------------------------
    def _wrap(self, qualname: str, fn, hook=None):
        name_id = len(self.names)
        self.names.append(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def _hook_draw(self, fn):
        sig = inspect.signature(fn)

        def hook(*args, **kwargs):
            cfg = sig.bind(*args, **kwargs).arguments["cfg"]
            self.normals += cfg.n
            self.draw_keys.add((cfg.seed, cfg.n))

        return hook

    def _hook_price(self, fn):
        sig = inspect.signature(fn)

        def hook(*args, **kwargs):
            self.elements += int(np.size(sig.bind(*args, **kwargs).arguments["r"]))

        return hook

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public layer function at every package binding."""
        mods = {n: importlib.import_module(f"mtgopt.{n}") for n in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qualname = f"{layer}.{attr}"
                hook = None
                if qualname == CALLS["mc_engine.draw"]:
                    hook = self._hook_draw(fn)
                elif qualname == CALLS["model.price"]:
                    hook = self._hook_price(fn)
                wrappers[id(fn)] = self._wrap(qualname, fn, hook)
        for name, mod in list(sys.modules.items()):
            if name == "mtgopt" or name.startswith("mtgopt."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers:
                        self._set(mod, attr, wrappers[id(value)])
        spec_cls = mods["model"].ModelSpec
        calibrate = spec_cls.__dict__["calibrate"].__func__
        self._set(spec_cls, "calibrate", classmethod(self._wrap("model.ModelSpec.calibrate", calibrate)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Per-op counts and self-time shares of each layer and group."""
        a = self.arrays()
        names = list(a["names"])
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        self_t = dur - np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        by_name = np.bincount(a["name"], weights=self_t, minlength=len(names))
        calls = np.bincount(a["name"], minlength=len(names))
        is_op = a["name"] == 0
        ops = int(np.sum(is_op))
        op_time = float(np.sum(dur[is_op]))
        index = {n: i for i, n in enumerate(names)}

        def self_of(qualnames) -> float:
            return float(sum(by_name[index[q]] for q in qualnames if q in index))

        def calls_of(qualname: str) -> int:
            return int(calls[index[qualname]]) if qualname in index else 0

        out: dict[str, float] = {"trace.ops": ops, "trace.spans": int(dur.size)}
        for prefix, qualname in CALLS.items():
            out[f"{prefix}.calls_per_op"] = calls_of(qualname) / ops
        draws = calls_of(CALLS["mc_engine.draw"])
        out["mc_engine.draw.normals_per_op"] = self.normals / ops
        out["mc_engine.draw.unique_ratio"] = len(self.draw_keys) / draws if draws else 0.0
        out["model.price.elements_per_op"] = self.elements / ops
        for group, members in GROUPS.items():
            out[f"{group}.self_share"] = self_of(members) / op_time
        for layer in LAYERS:
            out[f"{layer}.self_share"] = self_of(n for n in names if n.split(".")[0] == layer) / op_time
        out["unattributed.self_share"] = float(by_name[0]) / op_time
        for group in ("mc_engine.draw", "model.price"):
            out[f"{group}.self_ms_per_op"] = 1e3 * self_of(GROUPS[group]) / ops
        return out
