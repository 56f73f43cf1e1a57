"""Spectral constants, Green kernels and form-valued resolvents on
rank-one hyperbolic spaces, with orbit-based critical-exponent
estimation for discrete isometry groups.

The six computing modules are registered lazily: each is in sys.modules
and is an attribute of the package from `import hypspec` on, but its
code runs on its first attribute access (importlib.util.LazyLoader).  So
a command that computes exact constants never loads numpy or compiles
the kernel and orbit code, while code that looks a module up in
sys.modules (a tracer wrapping its functions, `from hypspec import
green`) still finds it.  The names the modules export, and `__all__`,
resolve through the package's `__getattr__` (PEP 562) on first use.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"

_MODULES = ("spaces", "bounds", "hyper", "green", "resolvent", "orbits")


def _register_lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _MODULES:
    globals()[_name] = _register_lazy(_name)
del _name


def __getattr__(name: str):
    # each public name is exported by one module (tests/test_imports.py);
    # the lookup executes the modules in order until it finds its owner
    if name == "__all__":
        value = sorted({"errors", *_MODULES,
                        *(public for m in _MODULES for public in globals()[m].__all__)})
    else:
        owner = None if name.startswith("_") else next(
            (m for m in _MODULES if name in globals()[m].__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(globals()[owner], name)
    globals()[name] = value
    return value
