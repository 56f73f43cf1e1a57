"""Spectral constants, Green kernels and form-valued resolvents on
rank-one hyperbolic spaces, with orbit-based critical-exponent
estimation for discrete isometry groups."""

__version__ = "0.1.0"

from .spaces import *
from .bounds import *
from .hyper import *
from .green import *
from .resolvent import *
from .orbits import *

__all__ = [name for name in dir() if not name.startswith("_")]
