"""Spans around hypspec's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function by a wrapper in every
hypspec module namespace that holds it, so calls from one layer into
another (`hypspec.orbits.green0_eval`, `hypspec.green.gauss_2f1`,
`hypspec.resolvent.build_tau_p_action`, the names `hypspec.cli` imports)
become nested spans without editing the package.  A span is
[name id, start, end, parent span, task id, tag]; times are
`time.monotonic()`, which is one clock for every process on the host, so
spans from CLI child processes merge under the task span that ran them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Prefix of the stderr line on which a traced CLI process exports its spans.
SPAN_MARKER = "perfbench-spans "

# Traced functions; the span name is "<module>.<function>".
TRACED = (
    ("spaces", "alpha_p"),
    ("bounds", "compare"),
    ("hyper", "gauss_2f1"),
    ("green", "green0_eval"),
    ("green", "green0_derivatives"),
    ("green", "green0_ode_residual"),
    ("resolvent", "build_tau_p_action"),
    ("resolvent", "build_radial_operator"),
    ("resolvent", "cover_point"),
    ("resolvent", "frobenius_solve"),
    ("resolvent", "kernel_eval"),
    ("resolvent", "kernel_derivatives"),
    ("resolvent", "form_ode_residual"),
    ("resolvent", "decay_check"),
    ("resolvent", "psi_extract"),
    ("orbits", "enumerate_orbit"),
    ("orbits", "estimate_delta"),
    ("orbits", "poincare_partial_sum"),
    ("orbits", "pullback_green_partial_sum"),
    ("cli", "main"),
)

_INT_SNAP = 1e-8  # hypspec.hyper snaps parameter gaps this close to an integer


def _near_int(z: complex):
    zr = round(z.real)
    return zr if abs(z - zr) < _INT_SNAP else None


def classify_2f1(a, b, c, z, config=None) -> str:
    """The branch `hypspec.hyper.gauss_2f1` takes for these arguments.

    Follows that function's dispatch order and the threshold of its
    `GreenEvalConfig`, reading only the arguments.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    thr = 0.9 if config is None else config.transformation_threshold
    if z == 0 or any((m := _near_int(x)) is not None and m <= 0 for x in (c, a, b)):
        return "special"
    if abs(z) <= thr:
        return "series"
    if abs(z / (z - 1.0)) <= thr:
        return "pfaff"
    if abs(z) >= 1.0 / thr:
        return "inf_log" if _near_int(b - a) is not None else "inf_generic"
    return "other"


def _cli_subcommand(argv=None) -> str:
    return (argv or sys.argv[1:] or ["?"])[0]


# Counters computed from the objects a traced call returns.
def _on_frobenius(tr, args, kern):
    nbytes = sum(m.nbytes for blk in kern.coeffs_a + kern.coeffs_b for m in blk)
    tr.count("resolvent.frobenius_solve.coeff_bytes", nbytes)


def _on_psi(tr, args, out):
    dim = args[0].taup.dim_v
    tr.count("resolvent.psi_extract.state_len", 2 * dim * dim)


def _on_enumerate(tr, args, sample):
    tr.count("orbits.words", sample.n_words)
    tr.count("orbits.dist_bytes", sum(d.nbytes for d in sample.distances_by_length))


def _on_pullback(tr, args, out):
    tr.count("orbits.pullback.points", len(args[2].distances))


def _keep_args(*args, **kwargs):
    return args + tuple(kwargs.values())


# The 2F1 branch is classified from the kept arguments after the run,
# which keeps that work out of the traced interval.
_TAGGERS = {"hyper.gauss_2f1": _keep_args, "cli.main": _cli_subcommand}
_HOOKS = {
    "resolvent.frobenius_solve": _on_frobenius,
    "resolvent.psi_extract": _on_psi,
    "orbits.enumerate_orbit": _on_enumerate,
    "orbits.pullback_green_partial_sum": _on_pullback,
}
# Counters that keep the largest value seen; the others are summed.
MAX_COUNTERS = ("resolvent.frobenius_solve.coeff_bytes", "resolvent.psi_extract.state_len")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.task = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._id(name), time.monotonic(), 0.0, parent, self.task, tag])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        cur = self.counters.get(key)
        if cur is None:
            self.counters[key] = value
        else:
            self.counters[key] = max(cur, value) if key in MAX_COUNTERS else cur + value

    def _wrap(self, name: str, fn):
        tagger, hook = _TAGGERS.get(name), _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, tagger(*args, **kwargs) if tagger else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap each traced function under every name hypspec binds it to."""
        importlib.import_module("hypspec.cli")
        mods = [m for k, m in list(sys.modules.items()) if k == "hypspec" or k.startswith("hypspec.")]
        for modname, fname in TRACED:
            fn = getattr(sys.modules["hypspec." + modname], fname)
            wrapped = self._wrap(f"{modname}.{fname}", fn)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def resolve_tags(self) -> None:
        """Replace kept 2F1 arguments by the branch they select."""
        for span in self.spans:
            if isinstance(span[5], tuple):
                span[5] = classify_2f1(*span[5])

    def export(self) -> dict:
        self.resolve_tags()
        return {"names": self.names, "spans": self.spans, "counters": self.counters}

    def merge(self, part: dict, under: int) -> None:
        """Append another process's exported spans below span `under`."""
        base = len(self.spans)
        task = self.spans[under][4]
        ids = [self._id(name) for name in part["names"]]
        for name, start, end, parent, _task, tag in part["spans"]:
            self.spans.append([
                ids[name], start, end,
                under if parent < 0 else base + parent, task, tag,
            ])
        for key, value in part["counters"].items():
            self.count(key, value)


def aggregate(tracer: Tracer) -> dict:
    """Per span name, and per 2F1 branch: calls, self time and inclusive time.

    Self time is a span's duration minus the time its child spans cover.
    `cli.main` also keeps its durations per subcommand.
    """
    tracer.resolve_tags()
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _name, start, end, parent, _task, _tag in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _parent, _task, tag) in enumerate(spans):
        dur = end - start
        key = tracer.names[name]
        keys = [key, f"hyper.branch.{tag}"] if key == "hyper.gauss_2f1" else [key]
        for k in keys:
            agg = out.setdefault(k, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += dur - child[i]
            agg["incl_s"] += dur
        if key == "cli.main":
            out.setdefault(f"cli.{tag}", {"durations": []})["durations"].append(dur)
    return out


def outermost_time(tracer: Tracer, prefix: str) -> float:
    """Wall time inside spans whose name starts with prefix, nesting counted once."""
    spans = tracer.spans
    inside = [tracer.names[s[0]].startswith(prefix) for s in spans]
    total = 0.0
    for i, (_name, start, end, parent, _task, _tag) in enumerate(spans):
        if not inside[i]:
            continue
        while parent >= 0 and not inside[parent]:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total
