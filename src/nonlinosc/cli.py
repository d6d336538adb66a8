"""Command-line front end.

Commands: ``measure`` (one potential), ``sweep`` (one parameter axis),
``scatter`` (randomized perturbative ensemble), ``curve`` (the
even-perturbation parametric curve), ``oracle-check`` (analytic vs
finite-difference cross-validation). Output is CSV (numeric/empty fields
only) or a single JSON document; numbers are serialized with 12 significant
digits so identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    GridError,
    NormalizationError,
    SpecError,
    TruncationError,
    UnphysicalCovarianceError,
)
from .measures import MeasureReport, fidelity_pure, measure_report
from .numerics import (
    DEFAULT_N_POINTS,
    DEFAULT_TARGET_TAIL,
    auto_grid,
    covariance_of,
    sample_ground_state,
)
from .oracle import fd_ground_state
from .perturbation import parametric_curve, scatter_sample
from .potentials import (
    PerturbedHarmonic,
    ground_energy,
    parse_potential_spec,
    sweep_axes,
    with_parameter,
)
from .specfun import entropy_h

_HANDLED_ERRORS = (
    SpecError,
    DomainError,
    GridError,
    ConvergenceError,
    NormalizationError,
    UnphysicalCovarianceError,
    TruncationError,
    OverflowError,
)

@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated invocation."""

    command: str
    potential: str | None = None
    fmt: str = "csv"
    out: str | None = None
    points: int = 50
    grid_points: int = DEFAULT_N_POINTS
    tail: float = DEFAULT_TARGET_TAIL
    seed: int = 0
    log_spacing: bool = False
    axis: str | None = None
    sweep_from: float | None = None
    sweep_to: float | None = None
    n: int = 500
    eps3: tuple[float, float] = (-0.1, 0.1)
    eps4: tuple[float, float] = (-0.25, 0.25)
    omega: float = 1.0


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def _round12(value: float | None):
    return None if value is None else float(f"{value:.12g}")


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_document(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _report_fields(report: MeasureReport) -> dict:
    return {
        "eta_b": _round12(report.eta_b),
        "eta_ng": _round12(report.eta_ng),
        "omega_r": _round12(report.omega_r),
        "ground_energy": _round12(report.ground_energy),
        "det_sigma": _round12(report.det_sigma),
        "fidelity_to_reference": _round12(report.fidelity_to_reference),
    }


_MEASURE_COLUMNS = ["eta_b", "eta_ng", "omega_r", "ground_energy", "det_sigma", "fidelity_to_reference"]


def _run_measure(config: RunConfig) -> int:
    spec = parse_potential_spec(config.potential)
    report = measure_report(spec, target_tail=config.tail, n_points=config.grid_points)
    for warning in report.diagnostics.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    fields = _report_fields(report)
    if config.fmt == "json":
        payload = {"potential": config.potential, **fields,
                   "warnings": list(report.diagnostics.warnings)}
        _emit(config, _json_document(payload))
    else:
        row = [_fmt(fields[c]) for c in _MEASURE_COLUMNS]
        _emit(config, _csv_table(_MEASURE_COLUMNS, [row]))
    return 0


def _sweep_values(config: RunConfig) -> np.ndarray:
    lo, hi, count = config.sweep_from, config.sweep_to, config.points
    if lo is None or hi is None:
        raise SpecError("sweep requires --from and --to")
    if not lo < hi:
        raise SpecError(f"sweep range must be strictly increasing, got [{lo}, {hi}]")
    if count < 2:
        raise SpecError(f"sweep needs at least 2 points, got {count}")
    if config.log_spacing:
        if lo <= 0.0:
            raise SpecError("log spacing requires a positive range start")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _sanitize_reason(exc: Exception) -> str:
    text = f"{type(exc).__name__}: {exc}"
    return text.replace(",", ";").replace("\n", " ")


def _run_sweep(config: RunConfig) -> int:
    base = parse_potential_spec(config.potential)
    if config.axis is None:
        raise SpecError(f"sweep requires --axis (one of {list(sweep_axes(base))})")
    if config.axis not in sweep_axes(base):
        raise SpecError(
            f"{type(base).__name__} has no sweep axis {config.axis!r}; "
            f"choose from {list(sweep_axes(base))}"
        )
    values = _sweep_values(config)

    successes = 0
    header = [config.axis] + _MEASURE_COLUMNS + ["error"]
    rows = []
    json_rows = []
    for value in values:
        try:
            spec = with_parameter(base, config.axis, float(value))
            report = measure_report(spec, target_tail=config.tail, n_points=config.grid_points)
        except _HANDLED_ERRORS as exc:
            reason = _sanitize_reason(exc)
            rows.append([_fmt(float(value))] + [""] * len(_MEASURE_COLUMNS) + [reason])
            json_rows.append(
                {config.axis: _round12(float(value)),
                 **{c: None for c in _MEASURE_COLUMNS},
                 "error": reason}
            )
        else:
            successes += 1
            fields = _report_fields(report)
            rows.append([_fmt(float(value))] + [_fmt(fields[c]) for c in _MEASURE_COLUMNS] + [""])
            json_rows.append({config.axis: _round12(float(value)), **fields, "error": None})
    if config.fmt == "json":
        _emit(config, _json_document({"command": "sweep", "potential": config.potential,
                                      "axis": config.axis, "rows": json_rows}))
    else:
        _emit(config, _csv_table(header, rows))
    if successes == 0:
        print("error: every sweep point failed", file=sys.stderr)
        return 1
    return 0


def _run_scatter(config: RunConfig) -> int:
    records = scatter_sample(config.n, config.eps3, config.eps4, config.omega, config.seed)
    header = ["eps3", "eps4", "eta_b", "eta_ng"]
    if config.fmt == "json":
        rows = [
            {"eps3": _round12(r.eps3), "eps4": _round12(r.eps4),
             "eta_b": _round12(r.eta_b), "eta_ng": _round12(r.eta_ng)}
            for r in records
        ]
        _emit(config, _json_document({"command": "scatter", "seed": config.seed, "rows": rows}))
    else:
        rows = [[_fmt(r.eps3), _fmt(r.eps4), _fmt(r.eta_b), _fmt(r.eta_ng)] for r in records]
        _emit(config, _csv_table(header, rows))
    return 0


def _run_curve(config: RunConfig) -> int:
    lo = 0.0 if config.sweep_from is None else config.sweep_from
    hi = 0.9 if config.sweep_to is None else config.sweep_to
    if not (0.0 <= lo < hi < 1.0):
        raise SpecError(f"curve range must satisfy 0 <= from < to < 1, got [{lo}, {hi}]")
    values = np.linspace(lo, hi, config.points)
    header = ["eta_b", "eta_ng_printed", "eta_ng_corrected"]
    rows = []
    json_rows = []
    for value in values:
        point = parametric_curve(float(value))
        rows.append([_fmt(float(value)), _fmt(point.printed), _fmt(point.corrected)])
        json_rows.append(
            {"eta_b": _round12(float(value)),
             "eta_ng_printed": _round12(point.printed),
             "eta_ng_corrected": _round12(point.corrected)}
        )
    if config.fmt == "json":
        _emit(config, _json_document({"command": "curve", "rows": json_rows}))
    else:
        _emit(config, _csv_table(header, rows))
    return 0


def _run_oracle_check(config: RunConfig) -> int:
    spec = parse_potential_spec(config.potential)
    if isinstance(spec, PerturbedHarmonic):
        raise SpecError("oracle-check compares analytic ground states; "
                        "the perturbed harmonic oscillator has none")
    grid = auto_grid(spec, config.tail, config.grid_points)
    analytic = sample_ground_state(spec, grid)
    result = fd_ground_state(spec, grid)
    e_analytic = ground_energy(spec)
    fidelity = fidelity_pure(analytic, result.wavefunction)
    ng_analytic = entropy_h(np.sqrt(covariance_of(analytic).det))
    ng_fd = entropy_h(np.sqrt(covariance_of(result.wavefunction).det))
    fields = {
        "e_analytic": _round12(e_analytic),
        "e_fd": _round12(result.energy),
        "e_diff": _round12(result.energy - e_analytic),
        "fidelity": _round12(fidelity),
        "eta_ng_analytic": _round12(float(ng_analytic)),
        "eta_ng_fd": _round12(float(ng_fd)),
    }
    if config.fmt == "json":
        _emit(config, _json_document({"potential": config.potential, **fields}))
    else:
        header = list(fields)
        _emit(config, _csv_table(header, [[_fmt(fields[c]) for c in header]]))
    ok = fidelity >= 1.0 - 1e-5 and abs(result.energy - e_analytic) <= 1e-4
    if not ok:
        print(
            f"error: oracle mismatch for {config.potential}: "
            f"|dE| = {abs(result.energy - e_analytic):.3g}, fidelity = {fidelity:.8f}",
            file=sys.stderr,
        )
        return 1
    return 0


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo,hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numeric lo,hi, got {text!r}") from None
    return lo, hi


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlinosc",
        description="Ground-state nonlinearity measures for 1D quantum oscillators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, potential=True):
        if potential:
            p.add_argument("--potential", required=True,
                           help="text form, e.g. morse:D=1,alpha=1 or fs:p=-0.4")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--grid-points", type=int, default=DEFAULT_N_POINTS)
        p.add_argument("--tail", type=float, default=DEFAULT_TARGET_TAIL)
        p.add_argument("--seed", type=int, default=0)

    p_measure = sub.add_parser("measure", help="evaluate both measures for one potential")
    common(p_measure)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--from", dest="sweep_from", type=float, required=True)
    p_sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=50)
    p_sweep.add_argument("--log-spacing", action="store_true")

    p_scatter = sub.add_parser("scatter", help="randomized perturbative ensemble")
    common(p_scatter, potential=False)
    p_scatter.add_argument("--n", type=int, default=500)
    p_scatter.add_argument("--eps3", type=_parse_range, default=(-0.1, 0.1))
    p_scatter.add_argument("--eps4", type=_parse_range, default=(-0.25, 0.25))
    p_scatter.add_argument("--omega", type=float, default=1.0)

    p_curve = sub.add_parser("curve", help="even-perturbation parametric curve")
    common(p_curve, potential=False)
    p_curve.add_argument("--from", dest="sweep_from", type=float, default=None)
    p_curve.add_argument("--to", dest="sweep_to", type=float, default=None)
    p_curve.add_argument("--points", type=int, default=50)

    p_oracle = sub.add_parser("oracle-check",
                              help="validate an analytic ground state against the FD solver")
    common(p_oracle)
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        potential=getattr(args, "potential", None),
        fmt=args.fmt,
        out=args.out,
        points=getattr(args, "points", 50),
        grid_points=args.grid_points,
        tail=args.tail,
        seed=args.seed,
        log_spacing=getattr(args, "log_spacing", False),
        axis=getattr(args, "axis", None),
        sweep_from=getattr(args, "sweep_from", None),
        sweep_to=getattr(args, "sweep_to", None),
        n=getattr(args, "n", 500),
        eps3=getattr(args, "eps3", (-0.1, 0.1)),
        eps4=getattr(args, "eps4", (-0.25, 0.25)),
        omega=getattr(args, "omega", 1.0),
    )


_DISPATCH = {
    "measure": _run_measure,
    "sweep": _run_sweep,
    "scatter": _run_scatter,
    "curve": _run_curve,
    "oracle-check": _run_oracle_check,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = build_config(args)
    try:
        return _DISPATCH[config.command](config)
    except _HANDLED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
