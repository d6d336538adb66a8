"""Correctness gate and accuracy references for benchmark outputs.

The gate parses what each command printed and checks the north-star
invariants on every row. The accuracy references come from outside the
code under test: the closed forms in ``tests/helpers.py`` (Morse
polygamma moments, mpmath quadrature of the MPT sech state), the exact
harmonic value 0, and, for the Fellows-Smith family, adaptive quadrature of
its analytic state with scipy's own confluent hypergeometric function.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from workloads import P_PLUS, Command

DET_FLOOR = 0.25 - 1e-6
REFINED_POINTS = 16385
# Every sampled state here has decayed far below double precision by |x| = 10.
_FS_QUAD_EXTENT = 10.0


@dataclass
class Evaluation:
    """One printed grid-family result that accuracy metrics can revisit."""

    potential: str
    axis: str | None
    value: float | None
    eta_b: float | None
    eta_ng: float
    index: int = 0  # row within its command


@dataclass
class Outcome:
    """What one command's output amounted to."""

    attempted: int
    succeeded: int = 0
    violations: list[str] = field(default_factory=list)
    evaluations: list[Evaluation] = field(default_factory=list)


def _number(text: str | None) -> float | None:
    return None if text in (None, "") else float(text)


def _rows(command: Command, stdout: str) -> list[dict]:
    if command.fmt == "json":
        payload = json.loads(stdout)
        return payload["rows"] if "rows" in payload else [payload]
    return [{k: (v if k == "error" else _number(v)) for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(stdout))]


def _finite(row: dict, keys) -> list[str]:
    return [f"{k}={row[k]!r} is not finite" for k in keys
            if isinstance(row.get(k), float) and not math.isfinite(row[k])]


def _measure_violations(row: dict, potential: str, axis: str | None, value: float | None):
    problems = _finite(row, ("eta_b", "eta_ng", "omega_r", "ground_energy", "det_sigma",
                             "fidelity_to_reference"))
    eta_b, eta_ng, det = row["eta_b"], row["eta_ng"], row["det_sigma"]
    if eta_ng is None or not eta_ng >= 0.0:
        problems.append(f"eta_ng={eta_ng!r} is not >= 0")
    if det is None or not det >= DET_FLOOR:
        problems.append(f"det_sigma={det!r} is below 1/4")
    if eta_b is not None and not 0.0 <= eta_b <= 1.0:
        problems.append(f"eta_b={eta_b!r} is outside [0, 1]")
    family = potential.partition(":")[0]
    if family == "fs":
        p = value if axis == "p" else float(potential.partition("p=")[2])
        if (eta_b is None) != (p < P_PLUS):
            problems.append(f"eta_b blank={eta_b is None} at p={p!r} (p+ = {P_PLUS!r})")
    elif eta_b is None:
        problems.append(f"eta_b is blank for {family}")
    return problems


def check(command: Command, returncode: int, stdout: str) -> Outcome:
    """Gate one command's output; every violation fails the row it is in."""
    outcome = Outcome(attempted=command.rows)
    if returncode != 0:
        outcome.violations.append(f"exit code {returncode}")
        return outcome
    try:
        rows = _rows(command, stdout)
    except (ValueError, KeyError) as exc:
        outcome.violations.append(f"unparseable output: {exc}")
        return outcome
    if len(rows) != command.rows:
        outcome.violations.append(f"{len(rows)} rows, expected {command.rows}")
        return outcome
    family = (command.potential or "").partition(":")[0]
    for i, row in enumerate(rows):
        if command.kind == "sweep":
            value = command.values[i]
            printed = row[command.axis]
            if printed is None or abs(printed - value) > 1e-11 * max(1.0, abs(value)):
                problems = [f"axis value {printed!r} != {value!r}"]
            elif row["error"]:
                continue  # a reported failure: counted, not a violation
            else:
                problems = _measure_violations(row, command.potential, command.axis, value)
                if not problems:
                    outcome.evaluations.append(Evaluation(
                        command.potential, command.axis, value, row["eta_b"], row["eta_ng"], i))
        elif command.kind == "measure":
            problems = _measure_violations(row, command.potential, None, None)
            if not problems and family != "pert":
                outcome.evaluations.append(Evaluation(
                    command.potential, None, None, row["eta_b"], row["eta_ng"]))
        elif command.kind == "oracle-check":
            problems = _finite(row, row)
            if not row["eta_ng_analytic"] >= 0.0:
                problems.append(f"eta_ng_analytic={row['eta_ng_analytic']!r} is not >= 0")
            if not problems:
                outcome.evaluations.append(Evaluation(
                    command.potential, None, None, None, row["eta_ng_analytic"]))
        elif command.kind == "scatter":
            problems = _finite(row, row)
            if not (0.0 <= row["eta_b"] <= 1.0 and row["eta_ng"] >= 0.0):
                problems.append(f"scatter row {row} breaks 0 <= eta_b <= 1, eta_ng >= 0")
        else:  # curve
            problems = _finite(row, row)
            if not (0.0 <= row["eta_b"] < 1.0 and row["eta_ng_corrected"] >= 0.0):
                problems.append(f"curve row {row} breaks 0 <= eta_b < 1, eta_ng >= 0")
        if problems:
            outcome.violations.extend(f"row {i}: {p}" for p in problems)
        else:
            outcome.succeeded += 1
    return outcome


def _entropy(det: float) -> float:
    from helpers import entropy_oracle

    # Quadrature can leave a Gaussian state a few ulp below det sigma = 1/4.
    return entropy_oracle(math.sqrt(max(det, 0.25)))


def _fs_det(p: float) -> float:
    """det sigma of exp(x^2/2) / Phi((1+p)/2, 1/2; x^2) by adaptive quadrature."""
    from scipy import integrate, special

    a = 0.5 * (1.0 + p)

    def density(x):
        return math.exp(x * x) / special.hyp1f1(a, 0.5, x * x) ** 2

    def dlog(x):
        return x * (1.0 - 4.0 * a * special.hyp1f1(a + 1.0, 1.5, x * x)
                    / special.hyp1f1(a, 0.5, x * x))

    def moment(fn):
        return integrate.quad(fn, 0.0, _FS_QUAD_EXTENT, epsabs=0.0, epsrel=1e-13,
                              limit=200)[0]

    norm = moment(density)
    var_x = moment(lambda x: x * x * density(x)) / norm
    var_p = moment(lambda x: dlog(x) ** 2 * density(x)) / norm
    return var_x * var_p


def reference_eta_ng(spec) -> float | None:
    """Independent eta_ng for harmonic, Morse, MPT and Fellows-Smith specs;
    None for families without one."""
    from helpers import morse_closed_moments, sech_state_moments

    from nonlinosc import FellowsSmith, Harmonic, ModifiedPoschlTeller, Morse

    if isinstance(spec, Harmonic):
        return 0.0
    if isinstance(spec, Morse):
        var_x, var_p = morse_closed_moments(spec.D, spec.alpha)
        return _entropy(var_x * var_p)
    if isinstance(spec, ModifiedPoschlTeller):
        # det sigma is scale-free, so the unit-width sech^s state suffices.
        var_x, var_p = sech_state_moments(spec.s)
        return _entropy(var_x * var_p)
    if isinstance(spec, FellowsSmith):
        return _entropy(_fs_det(spec.p))
    return None


def _spec(evaluation: Evaluation):
    from nonlinosc.potentials import parse_potential_spec, with_parameter

    spec = parse_potential_spec(evaluation.potential)
    if evaluation.axis is not None:
        spec = with_parameter(spec, evaluation.axis, evaluation.value)
    return spec


def accuracy(evaluations: list[Evaluation]) -> tuple[list[float], list[float]]:
    """Per-evaluation |printed eta - library eta at 16,385 points| (largest of
    eta_b and eta_ng) and |printed eta_ng - independent reference|."""
    from nonlinosc import measure_report

    refine, reference = [], []
    for evaluation in evaluations:
        spec = _spec(evaluation)
        fine = measure_report(spec, n_points=REFINED_POINTS)
        delta = abs(evaluation.eta_ng - fine.eta_ng)
        if evaluation.eta_b is not None:
            delta = max(delta, abs(evaluation.eta_b - fine.eta_b))
        refine.append(delta)
        exact = reference_eta_ng(spec)
        if exact is not None:
            reference.append(abs(evaluation.eta_ng - exact))
    return refine, reference
