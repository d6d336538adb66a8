"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from nonlinosc.cli import main as cli_main
from nonlinosc.measures import measure_report, sized_ground_state
from nonlinosc.oracle import fd_ground_state, fidelity
from nonlinosc.perturbation import (
    PerturbativeState,
    eta_b_perturbative,
    parametric_curve,
)
from nonlinosc.potentials import (
    P_PLUS,
    FellowsSmith,
    Harmonic,
    ModifiedIsotonic,
    ModifiedPoschlTeller,
    Morse,
    PerturbedHarmonic,
)

from helpers import entropy_h, perturbed_variances, three_term_state

STANDARD_SET = [
    Morse(1.0, 0.5),
    Morse(1.0, 1.0),
    Morse(2.0, 1.5),
    ModifiedPoschlTeller(1.0, 0.5),
    ModifiedPoschlTeller(1.0, 1.0),
    ModifiedPoschlTeller(3.0, 1.0),
    ModifiedIsotonic(0.5),
    ModifiedIsotonic(2.0),
    ModifiedIsotonic(8.0),
    FellowsSmith(-0.1),
    FellowsSmith(-0.5),
    FellowsSmith(-0.9),
]


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number:2d}: FAIL - {label}")
        raise
    print(f"[acceptance] criterion {number:2d}: PASS - {label}")


def strictly_increasing(seq) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


def strictly_decreasing(seq) -> bool:
    return all(a > b for a, b in zip(seq, seq[1:]))


def test_criterion_1_harmonic_null():
    with criterion(1, "harmonic potentials score zero on both measures"):
        for omega in (0.1, 1.0, 10.0):
            report = measure_report(Harmonic(omega))
            assert report.eta_b <= 1e-6
            assert report.eta_ng <= 1e-6


def test_criterion_2_oracle_equivalence():
    with criterion(2, "analytic states and energies match the DVR oracle"):
        for spec in STANDARD_SET:
            dvr = fd_ground_state(spec, sized_ground_state(spec).grid)
            assert fidelity(spec, dvr) >= 1.0 - 1e-12, spec
            assert abs(dvr.energy - spec.energy()) <= 1e-12 * max(1.0, abs(spec.energy())), spec


def test_criterion_3_perturbative_formula_equivalence():
    with criterion(3, "printed variances and eta_b match exact Gaussian moments"):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            a1, a2 = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
            state = PerturbativeState(a1, a2)
            var_q, var_p = perturbed_variances(state)
            vacuum_overlap, var_x, oracle_var_p = three_term_state(a1, a2)
            assert abs(var_q - var_x) <= 1e-12
            assert abs(var_p - oracle_var_p) <= 1e-12
            assert abs(eta_b_perturbative(state) - math.sqrt(1.0 - vacuum_overlap)) <= 1e-12


def test_criterion_4_parametric_curve_consistency():
    with criterion(4, "even perturbations land on the corrected curve; "
                      "the as-typeset curve is non-evaluable off the origin"):
        rng = np.random.default_rng(577)
        non_evaluable = 0
        for _ in range(100):
            eps4 = float(rng.uniform(-0.25, 0.25))
            report = measure_report(PerturbedHarmonic(1.0, 0.0, eps4))
            eta_b = report.eta_b
            point = parametric_curve(eta_b)
            assert abs(report.eta_ng - point.corrected) <= 1e-12
            if eta_b > 0.0:
                assert point.printed is None
                non_evaluable += 1
        assert non_evaluable >= 99
        print(f"    [criterion 4] as-typeset curve non-evaluable at {non_evaluable}/100 "
              "sampled eta_b > 0 (documented discrepancy; corrected form used)")


def test_criterion_5_morse_trends():
    with criterion(5, "Morse: measures rise with alpha, fall with D; "
                      "small-alpha vanishing and edge growth"):
        d_values = (0.25, 0.5, 1.0)
        alphas = np.linspace(0.05, 0.95, 20) * 2.0 * math.sqrt(2.0 * min(d_values))
        table = {}
        for d in d_values:
            reports = [measure_report(Morse(d, float(a))) for a in alphas]
            assert strictly_increasing([r.eta_b for r in reports]), d
            assert strictly_increasing([r.eta_ng for r in reports]), d
            table[d] = reports
        for j in range(len(alphas)):
            assert strictly_decreasing([table[d][j].eta_b for d in d_values]), alphas[j]
            assert strictly_decreasing([table[d][j].eta_ng for d in d_values]), alphas[j]
        assert measure_report(Morse(1.0, 0.01)).eta_ng <= 0.01
        # The edge state is 1,370 wide with a peak 0.36 wide: it needs 16,385 points.
        edge = measure_report(Morse(1.0, 0.99 * 2.0 * math.sqrt(2.0)), n_points=16385)
        assert edge.eta_ng >= 1.0


def _mpt_curve(d: float, points: int = 28) -> tuple[np.ndarray, np.ndarray]:
    # alpha range chosen to cover a common span of the depth index s, with
    # interior points landing at different s per D (honest superposition).
    s_hi, s_lo = 3.2, 0.28
    a_lo = math.sqrt(2.0 * d / (s_hi * (s_hi + 1.0)))
    a_hi = math.sqrt(2.0 * d / (s_lo * (s_lo + 1.0)))
    etas_b, etas_ng = [], []
    for alpha in np.linspace(a_lo, a_hi, points):
        report = measure_report(ModifiedPoschlTeller(d, float(alpha)))
        etas_b.append(report.eta_b)
        etas_ng.append(report.eta_ng)
    return np.asarray(etas_ng), np.asarray(etas_b)


def test_criterion_6_mpt_superposition():
    with criterion(6, "MPT parametric curves superimpose across D; "
                      "closed-form eta_ng check at D=1, alpha=1"):
        curves = {d: _mpt_curve(d) for d in (1.0, 2.0, 3.0)}
        lo = max(c[0].min() for c in curves.values())
        hi = min(c[0].max() for c in curves.values())
        assert lo < hi
        probe = np.linspace(lo, hi, 50)
        interpolants = {
            d: np.interp(probe, ng, eb) for d, (ng, eb) in curves.items()
        }
        sup = 0.0
        for d1 in interpolants:
            for d2 in interpolants:
                sup = max(sup, float(np.max(np.abs(interpolants[d1] - interpolants[d2]))))
        assert sup <= 1e-3, sup
        assert measure_report(ModifiedPoschlTeller(1.0, 1.0)).eta_ng == pytest.approx(
            entropy_h(math.pi / 6.0), abs=1e-5
        )


def test_criterion_7_mio_shape():
    with criterion(7, "MIO: eta_b grows monotonically while eta_ng has one "
                      "interior maximum"):
        reports = [measure_report(ModifiedIsotonic(float(a)))
                   for a in np.geomspace(0.2, 50.0, 40)]
        assert strictly_increasing([r.eta_b for r in reports])
        eta_ng_values = np.array([r.eta_ng for r in reports])
        signs = np.sign(np.diff(eta_ng_values))
        assert np.all(signs != 0.0)
        flips = np.nonzero(signs[:-1] != signs[1:])[0]
        assert flips.size == 1
        assert signs[0] > 0 and signs[-1] < 0


def test_criterion_8_fellows_smith():
    with criterion(8, "Fellows-Smith: eta_ng decreases with p; eta_b exists "
                      "exactly in the single-well region and tracks eta_ng"):
        p_grid = np.linspace(-0.98, 0.0, 30)
        reports = [measure_report(FellowsSmith(float(p))) for p in p_grid]
        assert strictly_decreasing([r.eta_ng for r in reports])
        for p, report in zip(p_grid, reports):
            assert (report.eta_b is not None) == (p >= P_PLUS), p
        single_well = [(p, r) for p, r in zip(p_grid, reports) if r.eta_b is not None]
        assert len(single_well) >= 4
        assert strictly_decreasing([r.eta_b for _, r in single_well])


def test_criterion_9_physical_invariants():
    with criterion(9, "Heisenberg bound holds and measures are stable under "
                      "grid halving"):
        for spec in STANDARD_SET + [Harmonic(0.1), Harmonic(1.0), Harmonic(10.0)]:
            coarse = measure_report(spec)
            assert coarse.det_sigma >= 0.25 - 1e-6, spec
            fine = measure_report(spec, n_points=8193)
            assert abs(coarse.eta_ng - fine.eta_ng) <= 1e-5, spec
            assert abs(coarse.det_sigma - fine.det_sigma) <= 1e-5, spec
            if coarse.eta_b is not None:
                assert abs(coarse.eta_b - fine.eta_b) <= 1e-5, spec
                assert abs(coarse.fidelity_to_reference - fine.fidelity_to_reference) <= 1e-5


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "scatter and sweep output is byte-identical across runs"):
        scatter_args = ["scatter", "--n", "500", "--seed", "42",
                        "--eps3=-0.1,0.1", "--eps4=-0.25,0.25"]
        sweep_args = ["sweep", "--potential", "morse:D=1,alpha=1", "--axis", "alpha",
                      "--from", "0.1", "--to", "2.5", "--points", "12"]
        for name, args in (("scatter", scatter_args), ("sweep", sweep_args)):
            blobs = []
            for run in ("first", "second"):
                out = tmp_path / f"{name}-{run}.csv"
                assert cli_main(args + ["--out", str(out)]) == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], name
