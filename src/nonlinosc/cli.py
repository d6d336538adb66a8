"""Command-line front end.

Commands: ``measure`` (one potential), ``sweep`` (one parameter axis),
``scatter`` (randomized perturbative ensemble), ``curve`` (the
even-perturbation parametric curve), ``oracle-check`` (analytic vs
sinc-DVR cross-validation). Each command builds its rows once, as
dicts of numbers rounded to 12 significant digits, ``None`` for an empty
field and a plain string for a sweep error reason; one writer, ``_emit``,
renders them as CSV or as a single JSON document, so identical
configurations produce byte-identical output in either format.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import math
import os
import sys

# BLAS work here is small; an OpenBLAS worker thread would only spin through start-up.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
if __name__ == "__main__":
    gc.disable()  # run() enables it after freezing what the imports allocated

import numpy as np

from .errors import NonlinoscError, SpecError
from .measures import (
    DEFAULT_N_POINTS, DEFAULT_TARGET_TAIL, MeasureReport, measure_report, require_grid_settings,
)
from .oracle import fd_ground_state, fidelity as oracle_fidelity
from .perturbation import parametric_curve, scatter_sample
from .potentials import PerturbedHarmonic, parse_potential_params, parse_potential_spec

# oracle-check passes when |E_dvr - E| <= 10 error bars + 1e-9 max(1, |E|) and 1 - fidelity <= 1e-8.
_ENERGY_MARGIN, _ENERGY_FLOOR, _INFIDELITY_BOUND = 10.0, 1e-9, 1e-8

_MEASURE_COLUMNS = ["eta_b", "eta_ng", "omega_r", "ground_energy", "det_sigma", "fidelity_to_reference"]


def _round12(value: float | None):
    return None if value is None else float(f"{value:.12g}")


def _cell(value: float | str | None) -> str:
    # A value rounded by _round12 formats back to the same 12 digits.
    if value is None:
        return ""
    return value if isinstance(value, str) else f"{value:.12g}"


def _emit(args: argparse.Namespace, columns: list[str], rows: list[dict], document: dict) -> None:
    """Write ``rows`` as a CSV table of ``columns``, or ``document`` as JSON."""
    if args.fmt == "json":
        text = json.dumps(document, indent=2) + "\n"
    else:
        lines = [",".join(columns)]
        lines.extend(",".join(_cell(row[c]) for c in columns) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_writable(path: str) -> None:
    """Raise the OSError that writing ``path`` would raise, without creating or truncating it."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _report_fields(report: MeasureReport) -> dict:
    return {c: _round12(getattr(report, c)) for c in _MEASURE_COLUMNS}


def _report(spec, args: argparse.Namespace, where: str = "") -> MeasureReport:
    """``measure_report`` at the command's grid flags; warnings go to stderr after ``where``."""
    report = measure_report(spec, target_tail=args.tail, n_points=args.grid_points)
    for warning in report.diagnostics.warnings:
        print(f"warning: {where}{warning}", file=sys.stderr)
    return report


def _run_measure(args: argparse.Namespace) -> int:
    report = _report(parse_potential_spec(args.potential), args)
    fields = _report_fields(report)
    document = {"potential": args.potential, **fields,
                "warnings": list(report.diagnostics.warnings)}
    _emit(args, _MEASURE_COLUMNS, [fields], document)
    return 0


def _sweep_values(args: argparse.Namespace) -> np.ndarray:
    lo, hi, count = args.sweep_from, args.sweep_to, args.points
    if not lo < hi:
        raise SpecError(f"sweep range must be strictly increasing, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise SpecError(f"sweep range must have finite ends and a finite width, got [{lo}, {hi}]")
    if count < 2:
        raise SpecError(f"sweep needs at least 2 points, got {count}")
    if args.log_spacing:
        if lo <= 0.0:
            raise SpecError("log spacing requires a positive range start")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _sanitize_reason(exc: Exception) -> str:
    text = f"{type(exc).__name__}: {exc}"
    return text.replace(",", ";").replace("\n", " ")


def _run_sweep(args: argparse.Namespace) -> int:
    # Rows build their own specs: the text's value on the swept axis, if any, is never checked.
    family, params = parse_potential_params(args.potential, sweep_axis=args.axis)
    values = _sweep_values(args)

    rows = []
    for value in values:
        try:
            report = _report(family(**{**params, args.axis: float(value)}), args,
                             where=f"{args.axis}={value:.12g}: ")
        except NonlinoscError as exc:
            fields = dict.fromkeys(_MEASURE_COLUMNS)
            error = _sanitize_reason(exc)
        else:
            fields = _report_fields(report)
            error = None
        rows.append({args.axis: _round12(float(value)), **fields, "error": error})
    document = {"command": "sweep", "potential": args.potential, "axis": args.axis, "rows": rows}
    _emit(args, [args.axis, *_MEASURE_COLUMNS, "error"], rows, document)
    if all(row["error"] is not None for row in rows):
        print("error: every sweep point failed", file=sys.stderr)
        return 1
    return 0


def _parse_range(name: str, text: str) -> tuple[float, float]:
    try:
        lo, hi = map(float, text.split(","))
    except ValueError:  # a count other than two, or a part that is not a number
        raise SpecError(f"{name} range must be two numbers lo,hi, got {text!r}") from None
    return lo, hi


def _run_scatter(args: argparse.Namespace) -> int:
    columns = ["eps3", "eps4", "eta_b", "eta_ng"]
    ranges = _parse_range("eps3", args.eps3), _parse_range("eps4", args.eps4)
    rows = []
    for eps3, eps4 in scatter_sample(args.n, *ranges, args.omega, args.seed):
        report = measure_report(PerturbedHarmonic(args.omega, eps3, eps4))
        rows.append(dict(zip(columns, map(_round12, (eps3, eps4, report.eta_b, report.eta_ng)))))
    _emit(args, columns, rows, {"command": "scatter", "seed": args.seed, "rows": rows})
    return 0


def _run_curve(args: argparse.Namespace) -> int:
    lo, hi = args.sweep_from, args.sweep_to
    if not (0.0 <= lo < hi < 1.0):
        raise SpecError(f"curve range must satisfy 0 <= from < to < 1, got [{lo}, {hi}]")
    if args.points < 2:
        raise SpecError(f"curve needs at least 2 points, got {args.points}")
    values = np.linspace(lo, hi, args.points)
    rows = []
    for value in values:
        point = parametric_curve(float(value))
        rows.append({"eta_b": _round12(float(value)),
                     "eta_ng_printed": _round12(point.printed),
                     "eta_ng_corrected": _round12(point.corrected)})
    _emit(args, ["eta_b", "eta_ng_printed", "eta_ng_corrected"], rows,
          {"command": "curve", "rows": rows})
    return 0


def _run_oracle_check(args: argparse.Namespace) -> int:
    spec = parse_potential_spec(args.potential)
    # Reported before the DVR solve, so a spec that measure cannot report fails as it does there.
    analytic = _report(spec, args)
    if analytic.diagnostics.grid is None:
        raise SpecError(f"{spec.kind} has a closed-form report and no sampled state to check")
    result = fd_ground_state(spec, analytic.diagnostics.grid)
    e_analytic = analytic.ground_energy
    infidelity = 1.0 - oracle_fidelity(spec, result)
    fields = {
        "e_analytic": _round12(e_analytic),
        "e_fd": _round12(result.energy),
        "e_diff": _round12(result.energy - e_analytic),
        "fidelity": _round12(1.0 - infidelity),
        "eta_ng_analytic": _round12(analytic.eta_ng),
        "eta_ng_fd": _round12(result.eta_ng),
    }
    _emit(args, list(fields), [fields], {"potential": args.potential, **fields})
    d_energy = abs(result.energy - e_analytic)
    energy_bound = _ENERGY_MARGIN * result.energy_error + _ENERGY_FLOOR * max(1.0, abs(e_analytic))
    if not (d_energy <= energy_bound and infidelity <= _INFIDELITY_BOUND):
        print(
            f"error: oracle mismatch for {args.potential}: "
            f"|dE| = {d_energy:.3g} (bound {energy_bound:.3g}), 1 - fidelity = {infidelity:.3g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlinosc",
        description="Ground-state nonlinearity measures for 1D quantum oscillators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, potential=True):
        p.set_defaults(run=run)
        if potential:
            p.add_argument("--potential", required=True,
                           help="text form, e.g. morse:D=1,alpha=1 or fs:p=-0.4")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if potential:  # only the commands that take a potential build a grid
            p.add_argument("--grid-points", type=int, default=DEFAULT_N_POINTS)
            p.add_argument("--tail", type=float, default=DEFAULT_TARGET_TAIL)

    p_measure = sub.add_parser("measure", help="evaluate both measures for one potential")
    common(p_measure, _run_measure)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter axis")
    common(p_sweep, _run_sweep)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--from", dest="sweep_from", type=float, required=True)
    p_sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=50)
    p_sweep.add_argument("--log-spacing", action="store_true")

    p_scatter = sub.add_parser("scatter", help="randomized perturbative ensemble")
    common(p_scatter, _run_scatter, potential=False)
    p_scatter.add_argument("--n", type=int, default=500)
    p_scatter.add_argument("--seed", type=int, default=0)
    p_scatter.add_argument("--eps3", default="-0.1,0.1")
    p_scatter.add_argument("--eps4", default="-0.25,0.25")
    p_scatter.add_argument("--omega", type=float, default=1.0)

    p_curve = sub.add_parser("curve", help="even-perturbation parametric curve")
    common(p_curve, _run_curve, potential=False)
    p_curve.add_argument("--from", dest="sweep_from", type=float, default=0.0)
    p_curve.add_argument("--to", dest="sweep_to", type=float, default=0.9)
    p_curve.add_argument("--points", type=int, default=50)

    p_oracle = sub.add_parser("oracle-check",
                              help="validate an analytic ground state against the DVR solver")
    common(p_oracle, _run_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "tail"):  # scatter and curve build no grid
            require_grid_settings(args.tail, args.grid_points)
        if args.out:
            _require_writable(args.out)
        return args.run(args)
    except (NonlinoscError, OSError) as exc:  # OSError: the --out path cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry point: ``main`` with the import graph frozen out of every collection."""
    gc.freeze()
    gc.enable()
    sys.exit(main())


if __name__ == "__main__":
    run()
