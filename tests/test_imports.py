"""Each CLI command imports only what it computes with.  The package
registers its six modules lazily, so alpha and bounds load no numpy and
green executes neither resolvent nor orbits.  No command loads scipy,
which only the tests depend on (hyper computes its Gamma functions
itself, and psi sums the local basis at t = 0 where it once integrated
with scipy.integrate).  Every check runs in a fresh interpreter, because
sys.modules in the test process already holds whatever other tests
imported."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import hypspec

SRC = str(Path(hypspec.__file__).resolve().parents[1])
CYCLIC_GROUP = str(Path(__file__).resolve().parents[1] / "perfbench" / "groups" / "cyclic_h3.json")

MODULES = ("spaces", "bounds", "hyper", "green", "resolvent", "orbits")
ALPHA = ["alpha", "--field", "H", "--n", "2"]
BOUNDS = ["bounds", "--field", "R", "--n", "5", "--p", "1", "--delta", "2"]
GREEN = ["green", "--field", "C", "--n", "2", "--s", "1.5", "--r-grid", "0.1:10:5", "--log"]

# type() reads no attribute, so it does not execute a lazily loaded module;
# one whose code has run is a plain module again
_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys, types
    import hypspec.cli
    want = json.loads(sys.argv[2])
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = hypspec.cli.main(argv)
        assert code == want, (argv, code)
    print(json.dumps({"modules": sorted(sys.modules), "executed": sorted(
        k for k, m in sys.modules.items()
        if k.startswith("hypspec") and type(m) is types.ModuleType)}))
""")


# every 2F1 branch, the kernel's derivatives and its array path; each
# assert checks that the branch built what needs a Gamma function
_LIBRARY_SCRIPT = textwrap.dedent("""
    import json, sys
    import numpy as np
    from hypspec import gauss_2f1, green0_derivatives, green0_eval_many, make_space
    from hypspec.hyper import _triple
    gauss_2f1(-3.0, 0.5, 1.5, -2.0)
    assert _triple(-3 + 0j, 0.5 + 0j, 1.5 + 0j).degree == 3
    gauss_2f1(0.3, 0.7 + 0.2j, 2.25, -1.5)
    assert "pfaff" in vars(_triple(0.3 + 0j, 0.7 + 0.2j, 2.25 + 0j))
    gauss_2f1(0.3, 0.7 + 0.2j, 2.25, -50.0)
    assert "generic" in vars(_triple(0.3 + 0j, 0.7 + 0.2j, 2.25 + 0j))
    gauss_2f1(0.25, 2.25, 1.5 + 0.5j, -50.0)
    assert "log" in vars(_triple(0.25 + 0j, 2.25 + 0j, 1.5 + 0.5j))
    space = make_space("C", 2)
    green0_derivatives(space, 1.5 + 0.5j, 0.7)
    green0_eval_many(space, 1.5, np.geomspace(0.1, 10.0, 5))
    print(json.dumps(sorted(sys.modules)))
""")


def _run(script, *args):
    """What script, run with args in a fresh interpreter, prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_after(*argvs, code=0):
    """Module names in sys.modules, and the hypspec modules whose code ran,
    after `import hypspec.cli` and main(argv) for each argv, each exiting
    with code, in a fresh interpreter."""
    out = _run(_SCRIPT, json.dumps(argvs), json.dumps(code))
    return set(out["modules"]), set(out["executed"])


def scipy_modules(mods):
    return sorted(m for m in mods if m == "scipy" or m.startswith("scipy."))


def test_cli_import_registers_every_module_lazily_and_loads_no_scipy():
    mods, executed = loaded_after()
    # perfbench's span tracer looks each of these up in sys.modules right
    # after `import hypspec.cli`; they are there, and run on first use
    for name in MODULES:
        assert f"hypspec.{name}" in mods
    assert executed == {"hypspec", "hypspec.cli", "hypspec.errors",
                        "hypspec.spaces", "hypspec.bounds"}
    assert "numpy" not in mods
    assert scipy_modules(mods) == []


def test_exact_commands_load_no_numpy():
    numeric = {f"hypspec.{name}" for name in ("hyper", "green", "resolvent", "orbits")}
    # the second bounds call is a domain error: delta past 2 rho exits 3
    for argvs, code in (((ALPHA, BOUNDS), 0), ((BOUNDS[:-1] + ["9"],), 3)):
        mods, executed = loaded_after(*argvs, code=code)
        assert "numpy" not in mods
        assert not executed & numeric


def test_exact_and_orbit_commands_load_no_scipy():
    mods, _ = loaded_after(
        ALPHA,
        BOUNDS,
        ["delta", "--group-file", CYCLIC_GROUP],
        ["resolvent", "--n", "5", "--p", "1", "--scan", "0.8:1.2:9"],
    )
    assert scipy_modules(mods) == []


def test_green_leaves_resolvent_and_orbits_unexecuted():
    mods, executed = loaded_after(GREEN)
    assert {"hypspec.hyper", "hypspec.green"} <= executed
    assert {"hypspec.resolvent", "hypspec.orbits"} <= mods - executed


def test_green_loads_no_scipy():
    mods, _ = loaded_after(GREEN)
    assert scipy_modules(mods) == []
    assert scipy_modules(_run(_LIBRARY_SCRIPT)) == []


def test_resolvent_report_loads_no_scipy():
    mods, _ = loaded_after(["resolvent", "--n", "5", "--p", "1", "--s", "1"],
                           ["resolvent", "--n", "2", "--p", "1", "--s", "1"])
    assert scipy_modules(mods) == []


def test_package_re_exports_every_module_name():
    # each module states its public names once, in its __all__
    import importlib

    for name in MODULES:
        module = importlib.import_module(f"hypspec.{name}")
        assert getattr(hypspec, name) is module
        for public in module.__all__:
            assert getattr(hypspec, public, None) is getattr(module, public), (name, public)
            assert public in hypspec.__all__
    # an unknown name is an AttributeError, so `from hypspec import x` and
    # hasattr behave as for any module
    assert not hasattr(hypspec, "no_such_name")
    assert not hasattr(hypspec, "__no_such_dunder__")
