"""The benchmark's workloads still run on the package's API.

perfbench/workloads.py drives the package the way the benchmark times it,
and checks every op against perfbench/oracle.py. A change that breaks what it
calls or reads fails every op of the benchmark; this runs the first ops of
each workload at a small n so that such a change fails here, and pins their
outputs' bits across commits. Both files are loaded by path: perfbench/ is not
a package, and workloads imports the oracle by its bare name.

`python tests/test_benchmark_workloads.py` (with the package importable)
prints the current FINGERPRINT_SHA256 block, to paste over the one below
after a declared byte move.
"""
import hashlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, as_name: str):
    spec = importlib.util.spec_from_file_location(as_name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[as_name] = module
    spec.loader.exec_module(module)
    return module


_load("oracle", "oracle")
workloads = _load("workloads", "perfbench_workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_ops_pass_their_checks_and_rerun_bit_for_bit(name):
    workload = workloads.build(name, 1, n=4000)
    for i in range(3):
        out = workload.prepare(i)()
        assert workload.check(i, out) is None, (name, i)
        assert workload.fingerprint(workload.prepare(i)()) == workload.fingerprint(out), (name, i)


def _fingerprint_hashes(name: str) -> tuple[str, ...]:
    """sha256 of repr(fingerprint) of ops 0, 1 and 2 at seed 1 and n = 4000."""
    workload = workloads.build(name, 1, n=4000)
    return tuple(
        hashlib.sha256(repr(workload.fingerprint(workload.prepare(i)())).encode()).hexdigest()
        for i in range(3)
    )


# A change that moves any output bit of the benchmark moves these; re-record
# them only with a declared byte move.
FINGERPRINT_SHA256 = {
    "closed_form": (
        "84e7fa0f3604496410288a96c34c0e6b0ee343a1668687c5917fd7434e9a5e5f",
        "b0151386bb88afb9a8655e172067363bdf743d8222ef2844faac8b94088b7f2e",
        "684cfe363e141c49bfc79cf6758285ce80f479d631faaacad6af29694dd76982",
    ),
    "sweep_crn_delta": (
        "802a8d79c5c4ae678ca4cf1b9a099ba9a0b854ac10ef49866309f217a2db9979",
        "07759dead7b1cd42a9c965b7c300fc8b84f1c1da94d44f0df07cf03d8a8ea2fb",
        "196559b7a7cf955735bb1c04acef4589b1a5528302ccf304f9967628499899d2",
    ),
    "sweep_ref": (
        "5d4f069ce5dc0d67d934dd4827adcdd7ed521f0176d664b3aab6275ee76c659d",
        "b5b3de7a76d2595bb5dc0d6a4ff6e0cfed1e6323b2216730b04936c8c6309510",
        "55878cb7c1d982c04e8c7eb0d14c165c991af21c94e73fcaf380eb2f7c4aacea",
    ),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_ops_keep_their_recorded_fingerprints(name):
    assert _fingerprint_hashes(name) == FINGERPRINT_SHA256[name]


def test_what_perfbench_reads_of_the_package_still_exists():
    # perfbench's own tests, which run outside the tier-1 suite, read these:
    # the tracer rebinds the first two and ModelSpec.calibrate, and the
    # oracle test prices through the last two. The closed_form op calls the
    # three LN entry points and reads the result's price, method and warning,
    # and the tracer wraps bs_call by name: a renamed function would silently
    # zero a traced group
    from mtgopt import harness, mc_engine, model, pricer_closed

    assert callable(mc_engine.model_price) and callable(harness.price_mc)
    assert "calibrate" in model.ModelSpec.__dict__
    spec = model.ModelSpec.calibrate(model.DurationParams(1.0, 9.0, 3.0, 0.055), model.MarketState(100.0, 0.01))
    dyn = model.RateDynamics(0.0, 0.02)
    mc = mc_engine.price_mc(spec, dyn, model.OptionContract(100.0, 0.25, 0.0209), mc_engine.McConfig(2000, 99))
    assert mc.price > 0.0 and mc.std_error > 0.0
    law = pricer_closed.ln_terminal_params(spec, dyn, 0.25)
    assert math.isfinite(law.mu_P) and law.sigma_P > 0.0
    c = model.OptionContract(100.0, 0.25, 0.0209)
    res = pricer_closed.price_ln(spec, dyn, c)
    assert res.price > 0.0 and res.method == "LN" and res.warning is None
    greeks = (pricer_closed.delta_ln(spec, dyn, c), pricer_closed.gamma_ln(spec, dyn, c))
    assert all(type(g) is float and g > 0.0 for g in greeks)
    assert callable(pricer_closed.bs_call)


if __name__ == "__main__":
    print("FINGERPRINT_SHA256 = {")
    for name in sorted(workloads.WORKLOADS):
        print(f'    "{name}": (')
        for digest in _fingerprint_hashes(name):
            print(f'        "{digest}",')
        print("    ),")
    print("}")
