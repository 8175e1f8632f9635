"""The benchmark's workloads still run on the package's API.

perfbench/workloads.py drives the package the way the benchmark times it,
and checks every op against perfbench/oracle.py. A change that breaks what it
calls or reads fails every op of the benchmark; this runs the first ops of
each workload at a small n so that such a change fails here, and pins their
outputs' bits across commits. Both files are loaded by path: perfbench/ is not
a package, and workloads imports the oracle by its bare name.
"""
import hashlib
import importlib.util
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


# sha256 of repr(fingerprint) of ops 0, 1 and 2 at seed 1 and n = 4000. A
# change that moves any output bit of the benchmark moves these; re-record
# them only with a declared byte move.
FINGERPRINT_SHA256 = {
    "closed_form": (
        "334057fc305cf544b6ef8a2bf82b76bb6f5fb0107e4c33e35bd804ed7090f487",
        "32956cc645fb7e83e79c4b10d8463acd3544f1c34283e9119a27523681e921d1",
        "fb6f3de3325152c4bb5cd95d8c9bd60c913d7ae6ca9d5d7cb84da412e1d50989",
    ),
    "sweep_crn_delta": (
        "4c2196c74d332e6289f59852928b2ed1f2794103429c5c96086a9d52b6137ecc",
        "7e81eb0d6b151be8d0031b3a274fbf7377f69c7d54a9998a56ccea7dfb47bb92",
        "8a65a4b9988cc4cf9c973456945f252b0303cf92e0354fa8a1c1c5ec3d9fbceb",
    ),
    "sweep_ref": (
        "8def4842975448613cfd677037ae1f16e16bf3565cb1f719ff85f3dcb28767f9",
        "c3d52abea34cf603667db62477ea3193578d742b03146db1ddfbabe1c7684726",
        "c062b76bf9a268860538e0e0dcc29db7a1e17431d0cbfb347d8b892951d57c3b",
    ),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_ops_keep_their_recorded_fingerprints(name):
    workload = workloads.build(name, 1, n=4000)
    got = tuple(
        hashlib.sha256(repr(workload.fingerprint(workload.prepare(i)())).encode()).hexdigest()
        for i in range(3)
    )
    assert got == FINGERPRINT_SHA256[name]
