"""Command-line front end: constant tables, bound comparisons, kernel
grids, resolvent reports, critical-exponent estimation.

Output is an envelope with a fixed field order; JSON is canonical and
CSV is a flat projection of the row list.  Floats are rendered with 17
significant digits, complex values as {"re": ..., "im": ...}.  Exit
codes: 0 success, 2 usage, 3 domain error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .bounds import compare, sullivan_corlette
from .errors import (
    DomainError,
    HypspecError,
    NumericalError,
    ResonanceDetected,
    UnknownConstant,
)
from .green import green0_eval, green0_ode_residual
from .orbits import (
    DedupPolicy,
    enumerate_orbit,
    estimate_delta,
    load_group_file,
    shell_sums,
)
from .resolvent import (
    block_ode_residual,
    build_radial_operator,
    cover_point,
    decay_check,
    frobenius_solve,
    kernel_blocks,
    psi_coefficient,
)
from .spaces import Field, alpha_p, make_space

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4


# --------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


# backslash, quote and the control characters U+0000-U+001F, which JSON
# strings may not hold unescaped
_JSON_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"', **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _json_render(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.translate(_JSON_ESCAPES) + '"')
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _json_render({"re": float(obj.real), "im": float(obj.imag)}, out)
    elif isinstance(obj, Fraction):
        out.append('"' + str(obj) + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append('"' + str(k) + '": ')
            _json_render(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _json_render(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def to_json(obj) -> str:
    out: list[str] = []
    _json_render(obj, out)
    return "".join(out)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


@dataclass
class OutputEnvelope:
    command: str
    parameters: dict
    rows: list[dict]
    format: str = "json"
    version: str = __version__
    extra: Optional[dict] = field(default=None)

    def render(self) -> str:
        if self.format == "csv":
            if not self.rows:
                return ""
            header = list(self.rows[0].keys())
            lines = [",".join(header)]
            for row in self.rows:
                lines.append(",".join(_csv_cell(row.get(k)) for k in header))
            return "\n".join(lines) + "\n"
        doc = {
            "command": self.command,
            "version": self.version,
            "parameters": self.parameters,
            "rows": self.rows,
        }
        if self.extra is not None:
            doc["extra"] = self.extra
        return to_json(doc) + "\n"


# --------------------------------------------------------------------------
# argument helpers

# most points a grid argument may ask for (test and benchmark grids use at
# most 100); a larger count fails up front instead of in the allocator
_MAX_GRID_POINTS = 2 ** 16
# most rows of alpha_p a table may ask for; (R, n = 100000) asks for 100001
_MAX_P_ROWS = 2 ** 20


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise DomainError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise DomainError(f"complex number {text!r} is not finite")
    return value


def _parse_grid(text: str, log: bool) -> np.ndarray:
    try:
        start_s, stop_s, count_s = text.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise DomainError(f"grid must be start:stop:count, got {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"grid endpoints must be finite, got {text!r}")
    if not 1 <= count <= _MAX_GRID_POINTS:
        raise DomainError(f"grid count must be in [1, {_MAX_GRID_POINTS}], got {count}")
    if log:
        if start <= 0 or stop <= 0:
            raise DomainError("log grid requires positive endpoints")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _parse_p_range(text: Optional[str], dim: int) -> range:
    try:
        lo, hi = (0, dim) if text is None else map(int, text.split(":"))
    except ValueError as exc:
        raise DomainError(f"p range must be lo:hi, got {text!r}") from exc
    if not 0 <= lo <= hi <= dim:
        raise DomainError(f"p range {text} outside [0, {dim}]")
    if hi - lo >= _MAX_P_ROWS:
        raise DomainError(f"p range asks for {hi - lo + 1} rows, over the cap of {_MAX_P_ROWS}")
    return range(lo, hi + 1)


# --------------------------------------------------------------------------
# subcommands

def _cmd_alpha(args) -> OutputEnvelope:
    space = make_space(Field(args.field), args.n)
    rows = []
    for p in _parse_p_range(args.p_range, space.dim):
        try:
            a = alpha_p(space, p)
            rows.append({"p": p, "alpha": str(a), "alpha_float": float(a), "error": None})
        except UnknownConstant:
            rows.append({"p": p, "alpha": None, "alpha_float": None, "error": "unknown"})
    params = {"field": space.field.value, "n": space.n, "rho": str(space.rho)}
    return OutputEnvelope("alpha", params, rows, args.format)


def _cmd_bounds(args) -> OutputEnvelope:
    space = make_space(Field(args.field), args.n)
    rep = compare(space, args.p, args.delta)
    row = {
        "p": rep.p,
        "delta": float(rep.delta),
        "theorem_b_bound": float(rep.theorem_b_bound),
        "theorem_b_raw": float(rep.theorem_b_raw),
        "zero_possible": rep.zero_possible,
        "zero_isolated": rep.zero_isolated,
        "sullivan_corlette_lambda00": float(rep.sullivan_corlette_lambda00),
        "bochner_bound": None if rep.bochner_bound is None else float(rep.bochner_bound),
        "difference": None if rep.difference is None else float(rep.difference),
    }
    params = {"field": space.field.value, "n": space.n, "p": args.p, "delta": args.delta}
    return OutputEnvelope("bounds", params, [row], args.format)


def _cmd_green(args) -> OutputEnvelope:
    space = make_space(Field(args.field), args.n)
    s = _parse_complex(args.s)
    grid = _parse_grid(args.r_grid, args.log)
    rows = []
    for r in grid:
        val = green0_eval(space, s, float(r))
        try:
            res = green0_ode_residual(space, s, float(r))
        except DomainError:
            res = None
        rows.append({"r": float(r), "re": val.real, "im": val.imag, "residual": res})
    params = {
        "field": space.field.value,
        "n": space.n,
        "s": s,
        "r_grid": args.r_grid,
        "log": args.log,
    }
    return OutputEnvelope("green", params, rows, args.format)


def _cmd_resolvent(args) -> OutputEnvelope:
    space = make_space(Field.REAL, args.n)
    signs = None
    if args.signs:
        if set(args.signs) - {"+", "-"}:
            raise DomainError(f"--signs takes only '+' and '-', got {args.signs!r}")
        signs = [1 if ch == "+" else -1 for ch in args.signs]
    op = build_radial_operator(args.n, args.p)
    if args.scan:
        return _resolvent_scan(args, space, op, signs)
    if args.s is None:
        raise DomainError("--s is required unless --scan is given")
    s = _parse_complex(args.s)
    cp = cover_point(space, args.p, s, signs)
    kern = frobenius_solve(op, cp, L=args.order)
    t_grid = _parse_grid(args.t_grid, False)
    # decay is a far-field quantity; fit it past the subleading corrections
    fit = decay_check(kern, np.linspace(max(5.0, float(t_grid[0])), 15.0, 11))
    residuals, grid_rows, ratios = [], [], []
    for t in map(float, t_grid):
        residuals.append(block_ode_residual(kern, t))
        f = kernel_blocks(kern, t)[0]
        # F = sum_j f_j P_j: operator norm max_j |f_j|, block j norm |f_j|
        norms = np.abs(f)
        entry = {"t": t, "total_norm": float(norms.max())}
        entry.update((f"block{j}_norm", float(fj)) for j, fj in enumerate(norms))
        grid_rows.append(entry)
        if args.p == 0:  # one block: F = f_0 I against the scalar kernel
            ratios.append(f[0] / green0_eval(space, s, t))
    psi, expo = psi_coefficient(op, kern)
    rows = [{
        "n": args.n,
        "p": args.p,
        "s_re": s.real,
        "s_im": s.imag,
        "h": cp.h,
        "on_physical_sheet": cp.on_physical_sheet,
        "decay_fit": fit,
        "rho_plus_h": (args.n - 1) / 2.0 + cp.h,
        "ode_residual_max": max(residuals),
        "resonance_margin": kern.resonance_margin,
        "has_log_terms": kern.has_log_terms,
        "psi_exponent": expo,
        "psi_sigma_min": abs(psi),  # the psi matrix is psi I
    }]
    extra = {
        "e_values": list(op.e_values),
        "exponents": [complex(m) for m in kern.exponents],
        "psi": psi,
        "kernel_grid": grid_rows,
    }
    if ratios:
        ratios = np.asarray(ratios)
        mean = ratios.mean()
        extra["scalar_oracle_agreement"] = float(np.abs(ratios - mean).max() / abs(mean))
    params = {
        "n": args.n,
        "p": args.p,
        "s": s,
        "signs": args.signs,
        "order": args.order,
        "t_grid": args.t_grid,
    }
    if args.grid_rows:
        extra["summary"] = rows[0]
        rows = grid_rows
    return OutputEnvelope("resolvent", params, rows, args.format, extra=extra)


def _resolvent_scan(args, space, op, signs) -> OutputEnvelope:
    """Resonance scan over a real s-grid: margin and status per point."""
    grid = _parse_grid(args.scan, False)
    rows = []
    for sv in grid:
        row = {"s_re": float(sv), "s_im": 0.0}
        try:
            cp = cover_point(space, args.p, complex(sv), signs)
            kern = frobenius_solve(op, cp, L=args.order)
            row["status"] = "log" if kern.has_log_terms else "ok"
            row["resonance_margin"] = kern.resonance_margin
        except ResonanceDetected:
            row["status"] = "ResonanceDetected"
            row["resonance_margin"] = None
        rows.append(row)
    params = {"n": args.n, "p": args.p, "scan": args.scan, "signs": args.signs,
              "order": args.order}
    return OutputEnvelope("resolvent", params, rows, args.format)


def _cmd_delta(args) -> OutputEnvelope:
    gens, base = load_group_file(args.group_file)
    if args.base is not None:
        base = [_parse_complex(v) for v in args.base.split(",")]  # the model reads it
    sample = enumerate_orbit(
        gens,
        base=base,
        max_len=args.max_len,
        dedup_policy=DedupPolicy(args.dedup),
    )
    est = estimate_delta(sample)
    space = make_space(gens.model.field, gens.model.n)
    two_rho = float(2 * space.rho)
    readout = min(max(est.growth_fit, 0.0), two_rho)
    row = {
        "growth_fit": est.growth_fit,
        "bisection": est.bisection,
        "spread": est.spread,
        "n_words": sample.n_words,
        "max_word_length": sample.max_word_length,
        "lambda00_at_estimate": float(sullivan_corlette(space, readout)),
    }
    extra = {
        "shell_word_counts": [int(len(d)) for d in sample.distances_by_length],
        "shell_sums_at_growth_fit": [float(v) for v in shell_sums(sample, readout)],
    }
    params = {"group_file": args.group_file, "max_len": args.max_len,
              "dedup": args.dedup, "base": args.base}
    return OutputEnvelope("delta", params, [row], args.format, extra=extra)


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypspec",
        description="Spectral constants, Green kernels and resolvents on hyperbolic spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("alpha", help="table of spectral constants alpha_p")
    p.add_argument("--field", required=True, choices=[f.value for f in Field])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--p-range", default=None)
    common(p)
    p.set_defaults(fn=_cmd_alpha)

    p = sub.add_parser("bounds", help="spectral lower bounds and their comparison")
    p.add_argument("--field", required=True, choices=[f.value for f in Field])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--delta", required=True, type=float)
    common(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("green", help="scalar Green kernel on a radial grid")
    p.add_argument("--field", required=True, choices=[f.value for f in Field])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--s", required=True, help="spectral parameter, e.g. 1 or 0.5+0.1i")
    p.add_argument("--r-grid", required=True, help="start:stop:count")
    p.add_argument("--log", action="store_true", help="log-spaced grid")
    common(p)
    p.set_defaults(fn=_cmd_green)

    p = sub.add_parser("resolvent", help="form-valued resolvent report (real field)")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--s", default=None, help="spectral parameter (omit with --scan)")
    p.add_argument("--signs", default=None, help="branch signs, e.g. '+-'")
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--t-grid", default="2:8:13")
    p.add_argument("--scan", default=None,
                   help="resonance scan over a real s-grid, start:stop:count")
    p.add_argument("--grid-rows", action="store_true",
                   help="emit the kernel grid (t, block norms, total norm) as the rows")
    common(p)
    p.set_defaults(fn=_cmd_resolvent)

    p = sub.add_parser("delta", help="critical-exponent estimation from a group file")
    p.add_argument("--group-file", required=True)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--base", default=None,
                   help="base point, comma-separated entries (overrides the file)")
    p.add_argument("--dedup", choices=[d.value for d in DedupPolicy],
                   default=DedupPolicy.FREE_REDUCTION.value)
    common(p)
    p.set_defaults(fn=_cmd_delta)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        envelope = args.fn(args)
    except (HypspecError, FileNotFoundError, ValueError) as exc:
        sys.stdout.write(
            to_json({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n"
        )
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_DOMAIN
    sys.stdout.write(envelope.render())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
