"""What the benchmark under perfbench/ needs of the package.

The benchmark wraps the functions that perfbench/spans.py lists by module
and name, and perfbench/tasks.py calls some of them by keyword.  A rename
or a dropped keyword fails every benchmark run, so it is caught here.
perfbench/ is only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from hypspec import orbits, resolvent

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, name", load_spans().TRACED)
def test_traced_functions_resolve(module, name):
    assert callable(getattr(importlib.import_module(f"hypspec.{module}"), name))


@pytest.mark.parametrize("fn, args, kwargs", [
    (resolvent.build_radial_operator, (3, 1), {"L_w": 40}),
    (resolvent.frobenius_solve, (object(), object()), {"L": 40}),
    (orbits.enumerate_orbit, (object(),),
     {"max_len": 4, "dedup_policy": orbits.DedupPolicy.MATRIX_HASH}),
])
def test_benchmark_keyword_calls_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)
