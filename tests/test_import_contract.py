"""Import contract: no command loads scipy, only a draw loads numpy.random,
and only a threaded draw a pool.

scipy.special takes about a quarter second to import and numpy.random about
a tenth. The draw inverts its uniforms with the package's own Cephes ndtri,
so no command, drawing or not, loads scipy, and no module of the package
imports it. The package, the SLN and LN closed forms, `defaults` and config
errors run without numpy.random too; each case runs in a fresh interpreter.
The SLN moments and the LN regime check use constant quadrature nodes, so the
closed forms do not load numpy.polynomial either.
concurrent.futures (a few ms) is loaded by a draw on more than one worker
and more than one shard, not by the package. No module of the package imports
another's private (underscore) names, or a name it never uses unless the
import is marked `# noqa: F401` (a re-export). Where a sample provider keeps
its arrays is mc_engine's alone: no other module reads a private attribute of
a Draws.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtgopt
from mtgopt.cli import main

SRC = str(Path(mtgopt.__file__).resolve().parents[1])

# runs the CLI on argv in this interpreter, then reports on stderr whether
# scipy was loaded
RUN_CLI = """
import sys
from mtgopt.cli import main
code = main(sys.argv[1:])
sys.stderr.write(f"scipy={'scipy' in sys.modules}\\n")
sys.exit(code)
"""


# as RUN_CLI, reporting whether numpy.random was loaded
RUN_CLI_RANDOM = """
import sys
from mtgopt.cli import main
code = main(sys.argv[1:])
sys.stderr.write(f"numpy.random={'numpy.random' in sys.modules}\\n")
sys.exit(code)
"""


# as RUN_CLI, reporting whether a thread pool module was loaded
RUN_CLI_POOL = """
import sys
from mtgopt.cli import main
code = main(sys.argv[1:])
sys.stderr.write(f"pool={'concurrent.futures' in sys.modules}\\n")
sys.exit(code)
"""


def fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "MTGOPT_SEED"}
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": SRC},
        timeout=120,
    )


def test_importing_the_closed_form_does_not_load_numpy_polynomial():
    r = fresh("import sys, mtgopt.pricer_closed; print('numpy.polynomial' in sys.modules)")
    assert (r.returncode, r.stdout, r.stderr) == (0, "False\n", "")


def test_importing_the_package_does_not_load_scipy():
    r = fresh(
        "import sys, mtgopt.model, mtgopt.pricer_closed, mtgopt.distfit, mtgopt.cli; "
        "print('scipy' in sys.modules)"
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, "False\n", "")


# the commands that draw nothing, with their exit codes
NO_DRAW = pytest.mark.parametrize(
    "argv,code",
    [
        (("defaults",), 0),
        (("price", "--method", "ln", "--set", "C=3"), 0),
        (("price", "--method", "sln", "--set", "C=3"), 0),
        (("greeks", "--method", "ln", "--set", "C=30"), 0),
        (("price", "--method", "ln", "--set", "C=3", "--set", "P0=1e155", "--set", "K=1e155"), 0),
        (("greeks", "--method", "ln", "--set", "C=3", "--set", "P0=1e155", "--set", "K=1e155"), 0),
        (("price", "--set", "C=-1"), 2),
    ],
    ids=["defaults", "price-ln", "price-sln", "greeks-ln", "price-ln-P0=1e155", "greeks-ln-P0=1e155",
         "config-error"],
)


@NO_DRAW
def test_commands_that_do_not_draw_do_not_load_scipy(argv, code):
    r = fresh(RUN_CLI, *argv)
    assert r.returncode == code, r.stderr
    assert r.stderr.endswith("scipy=False\n"), r.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("price", "--method", "mc", "--set", "C=3", "--set", "n=2000"),
        ("greeks", "--method", "mc", "--set", "C=3", "--set", "n=2000"),
        ("fit", "--set", "C=3", "--set", "n=2000"),
        ("qq", "--set", "C=3", "--set", "n=2000", "--quantiles", "9"),
        ("sweep", "--set", "n=2000", "--axis1", "K=99,101", "--axis2", "C=3", "--engines", "mc", "--workers", "2"),
    ],
    ids=["price-mc", "greeks-mc", "fit", "qq", "sweep-mc"],
)
def test_commands_that_draw_do_not_load_scipy(argv, tmp_path):
    out = ("--out", str(tmp_path / "out.csv")) if argv[0] in ("qq", "sweep") else ()
    r = fresh(RUN_CLI, *argv, *out)
    assert r.returncode == 0, r.stderr
    assert r.stderr == "scipy=False\n"


def test_no_module_of_the_package_imports_scipy():
    imports = []
    for path in sorted(Path(mtgopt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                imports.append((path.name, node.module))
    assert imports == []


@NO_DRAW
def test_commands_that_do_not_draw_do_not_load_numpy_random(argv, code):
    r = fresh(RUN_CLI_RANDOM, *argv)
    assert r.returncode == code, r.stderr
    assert r.stderr.endswith("numpy.random=False\n"), r.stderr


def test_importing_the_harness_does_not_load_numpy_random():
    r = fresh("import sys, mtgopt.harness, mtgopt.cli; print('numpy.random' in sys.modules)")
    assert (r.returncode, r.stdout, r.stderr) == (0, "False\n", "")


def test_a_draw_in_a_fresh_interpreter_prints_the_in_process_bytes(capsys, monkeypatch):
    # the fresh interpreter first imports numpy.random inside main's np.errstate
    monkeypatch.delenv("MTGOPT_SEED", raising=False)
    argv = ("price", "--method", "mc", "--set", "C=3", "--set", "n=2000")
    r = fresh(RUN_CLI, *argv)
    assert (r.returncode, r.stderr) == (0, "scipy=False\n")
    assert main(list(argv)) == 0
    assert r.stdout == capsys.readouterr().out
    assert json.loads(r.stdout)["n"] == 2000


def test_importing_the_harness_does_not_load_a_thread_pool():
    r = fresh("import sys, mtgopt.harness; print('concurrent.futures' in sys.modules)")
    assert (r.returncode, r.stdout, r.stderr) == (0, "False\n", "")


@pytest.mark.parametrize("argv", [("defaults",), ("price", "--method", "ln", "--set", "C=3")],
                         ids=["defaults", "price-ln"])
def test_commands_that_do_not_draw_on_threads_do_not_load_a_thread_pool(argv):
    r = fresh(RUN_CLI_POOL, *argv)
    assert r.returncode == 0, r.stderr
    assert r.stderr.endswith("pool=False\n"), r.stderr


def test_no_module_imports_a_private_name_from_another():
    private = []
    for path in sorted(Path(mtgopt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("mtgopt")):
                private += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert private == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(mtgopt.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append((path.name, name))
    assert unused == []


# the private attributes in which a Draws lays out its slots and what it keeps
DRAWS_PRIVATE = {"_slots", "_work", "_held", "_kept"}


def test_no_module_but_mc_engine_reads_a_provider_s_private_attributes():
    reads = []
    for path in sorted(Path(mtgopt.__file__).parent.glob("*.py")):
        if path.name == "mc_engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            # draws._slots, and the name in getattr(draws, "_slots")
            if isinstance(node, ast.Attribute) and node.attr in DRAWS_PRIVATE:
                reads.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.Constant) and node.value in DRAWS_PRIVATE:
                reads.append((path.name, node.lineno, node.value))
    assert reads == []
