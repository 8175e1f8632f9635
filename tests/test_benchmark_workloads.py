"""The benchmark's workloads still run on the package's API.

perfbench/workloads.py drives the package the way the benchmark times it,
and checks every op against perfbench/oracle.py. A change that breaks what it
calls or reads fails every op of the benchmark; this runs the first ops of
each workload at a small n so that such a change fails here. Both files are
loaded by path: perfbench/ is not a package, and workloads imports the oracle
by its bare name.
"""
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
