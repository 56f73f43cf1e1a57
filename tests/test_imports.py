"""scipy is loaded on first use: each CLI command imports only what it
computes with.  Every check runs in a fresh interpreter, because
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

_SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    import hypspec.cli
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = hypspec.cli.main(argv)
        assert code == 0, (argv, code)
    print(json.dumps(sorted(sys.modules)))
""")


def loaded_after(*argvs):
    """Module names in sys.modules after `import hypspec.cli` and main(argv)
    for each argv, in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def scipy_modules(mods):
    return sorted(m for m in mods if m == "scipy" or m.startswith("scipy."))


def test_cli_import_is_eager_for_hypspec_and_loads_no_scipy():
    mods = loaded_after()
    # perfbench's span tracer looks each of these up in sys.modules right
    # after `import hypspec.cli`, so the package's own graph stays eager
    for name in ("spaces", "bounds", "hyper", "green", "resolvent", "orbits"):
        assert f"hypspec.{name}" in mods
    assert "numpy" in mods
    assert scipy_modules(mods) == []


def test_exact_and_orbit_commands_load_no_scipy():
    mods = loaded_after(
        ["alpha", "--field", "H", "--n", "2"],
        ["bounds", "--field", "R", "--n", "5", "--p", "1", "--delta", "2"],
        ["delta", "--group-file", CYCLIC_GROUP],
        ["resolvent", "--n", "5", "--p", "1", "--scan", "0.8:1.2:9"],
    )
    assert scipy_modules(mods) == []


def test_green_loads_scipy_special_only():
    mods = loaded_after(["green", "--field", "C", "--n", "2", "--s", "1.5",
                         "--r-grid", "0.1:10:5", "--log"])
    assert "scipy.special" in mods
    assert "scipy.integrate" not in mods


def test_resolvent_report_loads_scipy_integrate():
    mods = loaded_after(["resolvent", "--n", "5", "--p", "1", "--s", "1"])
    assert "scipy.integrate" in mods


def test_package_re_exports_every_module_name():
    # each module states its public names once, in its __all__
    import importlib

    for name in ("spaces", "bounds", "hyper", "green", "resolvent", "orbits"):
        module = importlib.import_module(f"hypspec.{name}")
        for public in module.__all__:
            assert getattr(hypspec, public, None) is getattr(module, public), (name, public)
            assert public in hypspec.__all__
