"""Property test of the ``measure`` command over wide parameter boxes.

Every valid spec has one of two outcomes: exit 0 with a report that holds
the invariants (0 <= eta_b <= 1, 0 <= fidelity <= 1, eta_ng >= 0,
det sigma >= 1/4 - 1e-6, every value finite), or exit 2 with an ``error:``
line from one of the package's error classes. An exception that escapes
``cli.main`` fails the test. Over the same boxes, each sampled state is
sized in one evaluation of its amplitude, and ``oracle-check`` prints the
eta_ng that ``measure`` prints, or fails where ``measure`` fails. Both
measures are free of units: a well rescaled by any factor reports them as
the unscaled well does. Near the Morse bound-state limit, an exit 0 carries
the closed form's eta_ng.
"""

import contextlib
import io
import json
import math
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from nonlinosc import numerics
from nonlinosc.cli import main
from nonlinosc.errors import GridError, SpecError
from nonlinosc.measures import DEFAULT_N_POINTS, measure_report, sized_ground_state
from nonlinosc.potentials import (
    P_PLUS,
    FellowsSmith,
    Harmonic,
    ModifiedIsotonic,
    ModifiedPoschlTeller,
    Morse,
)
from nonlinosc.specfun import eta_ng_of_excess

from helpers import P_MINUS, closed_excess, report_extent

FIELDS = ("eta_b", "eta_ng", "omega_r", "ground_energy", "det_sigma", "fidelity_to_reference")
SETTINGS = settings(max_examples=40, deadline=None)
# Error texts that name no cause: entropy_h's domain check and a float ** overflow.
UNNAMED_CAUSES = ("entropy_h", "Numerical result out of range")


def log_uniform(lo: float, hi: float):
    """10**e for e uniform in [lo, hi]."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


# Half the draws near unit scale, where most reports succeed; half over
# nearly the whole float range, where most fail on resolution or range.
SCALE = st.one_of(log_uniform(-3.0, 3.0), log_uniform(-300.0, 300.0))
# Fraction of the Morse bound-state limit 2 sqrt(2D).
MORSE_FRACTION = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    log_uniform(-300.0, 0.0),
)


def run(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_measure(
    text: str, *flags: str, blank: tuple[str, ...] = (), names: tuple[str, ...] = ()
) -> dict | None:
    """The report of a run that exits 0, None for one that exits 2; fields
    named in ``blank`` must be empty, every other one finite. With
    ``names``, an exit 2 prints one error line that names one of them."""
    code, out, err = run("measure", "--potential", text, "--format", "json", *flags)
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert lines[-1].startswith("error: ")
        # An unrepresented sample or an extreme parameter names its cause.
        assert not any(cause in lines[-1] for cause in UNNAMED_CAUSES), (text, lines)
        if names:
            assert len(lines) == 1 and any(name in lines[0] for name in names), (text, lines)
        return None
    assert code == 0, (text, code, err)
    report = json.loads(out)
    assert [name for name in FIELDS if report[name] is None] == list(blank), (text, report)
    values = [report[name] for name in FIELDS if name not in blank]
    assert all(isinstance(v, float) and math.isfinite(v) for v in values), (text, report)
    assert "eta_b" in blank or 0.0 <= report["eta_b"] <= 1.0, (text, report)
    fidelity = report["fidelity_to_reference"]
    assert fidelity is None or 0.0 <= fidelity <= 1.0 + 1e-11, (text, report)
    assert report["eta_ng"] >= 0.0, (text, report)
    assert report["det_sigma"] >= 0.25 - 1e-6, (text, report)
    return report


@SETTINGS
@given(omega=SCALE)
@example(omega=1e-8)  # 1.3e5 wide
@example(omega=5e-324)  # the seed leaves the float range
def test_harmonic(omega):
    check_measure(f"harmonic:omega={omega!r}")


@SETTINGS
@given(depth=SCALE, fraction=MORSE_FRACTION)
@example(depth=1e-300, fraction=1e-300 / (2.0 * math.sqrt(2e-300)))  # omega_R underflows
def test_morse(depth, fraction):
    check_measure(f"morse:D={depth!r},alpha={fraction * 2.0 * math.sqrt(2.0 * depth)!r}")


# (D, alpha) with alpha at 1 - 10**[-9, -0.5] of the limit 2 sqrt(2D), so N is 5e-10 to 0.23.
NEAR_LIMIT_MORSE = st.tuples(log_uniform(-3.0, 3.0), log_uniform(-9.0, -0.5)).map(
    lambda draw: (draw[0], (1.0 - draw[1]) * 2.0 * math.sqrt(2.0 * draw[0]))
)


@SETTINGS
@given(well=NEAR_LIMIT_MORSE, tail=st.one_of(st.just(1e-8), log_uniform(-300.0, -4.0)))
@example(well=(1.0, 2.8282), tail=1e-8)  # its rise falls between nodes 0 and 1
def test_morse_near_the_limit_reports_the_closed_form(well, tail):
    depth, alpha = well
    report = check_measure(f"morse:D={depth!r},alpha={alpha!r}", "--tail", repr(tail))
    if report is not None:
        exact = eta_ng_of_excess(closed_excess(Morse(depth, alpha)))
        bound = 1e-3 if report["warnings"] else 1e-6
        assert abs(report["eta_ng"] - exact) <= bound * exact, (depth, alpha, tail, report)


@SETTINGS
@given(depth=SCALE, alpha=SCALE)
@example(depth=1e6, alpha=1.0)  # a state 0.006 wide: the seed spans it with the whole grid
@example(depth=1.0, alpha=1e-4)  # 1,048 wide
@example(depth=1e300, alpha=1e-300)  # alpha^2 underflows to 0
@example(depth=1e-300, alpha=1e300)  # alpha^2 overflows
def test_mpt(depth, alpha):
    check_measure(f"mpt:D={depth!r},alpha={alpha!r}")


@SETTINGS
@given(a=st.one_of(log_uniform(-3.0, 3.0), log_uniform(-300.0, 300.0)))
@example(a=1e300)  # reference Gaussian far narrower than the grid spacing: exit 2
@example(a=1e307)  # a x^2 would overflow inside the grid
@example(a=1.7e308)  # omega_R overflows
@example(a=1e-300)  # the omega = 5 Gaussian limit: a full report
@example(a=5e-324)  # 4/a overflows
def test_mio(a):
    check_measure(f"mio:a={a!r}")


@SETTINGS
@given(
    p=st.floats(min_value=-1.0, max_value=0.0, exclude_min=True),
    tail=log_uniform(-300.0, -4.0),
)
@example(p=0.0, tail=1e-4)  # a seed narrower than the harmonic one misses this tail
@example(p=P_PLUS, tail=1e-8)
@example(p=P_MINUS, tail=1e-8)
@example(p=-0.9999, tail=1e-30)
@example(p=-1.0 + 1e-9, tail=1e-300)
def test_fellows_smith(p, tail):
    # Sizing: the seed meets the tail at once, so the grid is never grown;
    # above p+ it widens toward the reference's seed, within bounds.
    spec = FellowsSmith(p)
    wf = sized_ground_state(spec, tail)
    assert (wf.grid.x_min, wf.grid.x_max) == report_extent(spec, tail), (p, tail)
    assert wf.tail_ratio <= tail, (p, tail)
    # Below a tail of about 1e-100 the p = 0 (harmonic) report fails with the
    # GridError of an unrepresented sample that Harmonic(1) also meets there.
    if tail >= 1e-30:
        blank = ("eta_b", "omega_r", "fidelity_to_reference") if p < P_PLUS else ()
        report = check_measure(f"fs:p={p!r}", "--tail", repr(tail), blank=blank)
        assert report is not None, (p, tail)


@SETTINGS
@given(
    omega=log_uniform(-300.0, 300.0),
    eps3=st.floats(min_value=-0.5, max_value=0.5),
    eps4=st.floats(min_value=-0.5, max_value=0.5),
)
# |eps| <= 1/2 alone admits the next three: the variances overflow at
# |alpha| ~ 1e75 and 1e150, and omega = 1e-3 reports eta_b = 0.999999.
@example(omega=1e-50, eps3=0.5, eps4=0.5)
@example(omega=1e-100, eps3=0.5, eps4=0.5)
@example(omega=1e-3, eps3=0.5, eps4=0.5)
@example(omega=1.0, eps3=0.5, eps4=-0.5)  # the guard's edge: a full report
def test_pert(omega, eps3, eps4):
    report = check_measure(
        f"pert:omega={omega!r},eps3={eps3!r},eps4={eps4!r}", names=("omega", "alpha")
    )
    if omega == 1.0:
        assert report is not None
    if report is not None:
        # The guard bounds N = 1 + alpha1^2 + alpha2^2 by 25/16, so
        # eta_b = sqrt(1 - N^{-1/2}) <= sqrt(1/5) and the fidelity 1/N >= 16/25;
        # the slack covers the 12-digit rounding of the output.
        assert report["eta_b"] <= math.sqrt(0.2) * (1.0 + 1e-11), (omega, eps3, eps4, report)
        assert report["fidelity_to_reference"] >= 0.64 * (1.0 - 1e-11), (omega, eps3, eps4, report)
        assert report["det_sigma"] >= 0.25, (omega, eps3, eps4, report)


# A change of units x -> x / k takes the well (D, alpha) to (D k^2, alpha k)
# and keeps the state's shape; grids then span 1e-100 to 1e100.
UNITS = log_uniform(-100.0, 100.0)


def assert_free_of_units(build, depth: float, alpha: float, k: float) -> None:
    """eta_ng and eta_b of the well and of the well in units 1/k agree to
    1e-12 relative."""
    base, scaled = (measure_report(build(depth * c * c, alpha * c)) for c in (1.0, k))
    for name in ("eta_ng", "eta_b"):
        expected, value = getattr(base, name), getattr(scaled, name)
        assert math.isclose(value, expected, rel_tol=1e-12), (depth, alpha, k, name, value)


@SETTINGS
@given(depth=log_uniform(-3.0, 3.0), fraction=st.floats(min_value=0.01, max_value=0.9),
       k=UNITS)
@example(depth=1.0, fraction=0.5, k=1e-100)
@example(depth=691.140569983156, fraction=0.01974858852860678, k=8.404458507663003e-80)
def test_morse_measures_are_free_of_units(depth, fraction, k):
    assert_free_of_units(Morse, depth, fraction * 2.0 * math.sqrt(2.0 * depth), k)


@SETTINGS
@given(alpha=log_uniform(-3.0, 3.0), s=st.floats(min_value=0.1, max_value=100.0), k=UNITS)
@example(alpha=1.0, s=1.0, k=1e100)
def test_mpt_measures_are_free_of_units(alpha, s, k):
    # D = alpha^2 s (s + 1) / 2 for the depth index s; below s = 0.1 the
    # default grid does not resolve the sech^s tails.
    assert_free_of_units(ModifiedPoschlTeller, 0.5 * alpha**2 * s * (s + 1.0), alpha, k)


# omega over the whole range where the seed at tail 1e-8 is finite; a
# smaller tail moves its lower end up, and past it the seed's error is named.
@SETTINGS
@given(omega=log_uniform(-306.6, 308.25), tail=st.one_of(st.just(1e-8), log_uniform(-300.0, -4.0)))
@example(omega=1e-300, tail=1e-8)
@example(omega=1e300, tail=1e-8)
# Near both ends of the float range, where a plain x^2 leaves it.
@example(omega=2.1e-307, tail=1e-8)
@example(omega=1e307, tail=1e-8)
@example(omega=1.7976931348623157e308, tail=1e-8)
# The grid cuts psi and phi alike; phi's norm on the grid is its norm.
@example(omega=1.0, tail=1e-4)
@example(omega=5.664248341266697, tail=8.98e-06)
def test_harmonic_reports_zero_at_every_frequency(omega, tail):
    seed = Harmonic(omega).seed_halfwidths(math.log(1.0 / tail))[0]
    report = check_measure(f"harmonic:omega={omega!r}", "--tail", repr(tail),
                           names=("seed for tail",))
    assert (report is not None) == math.isfinite(seed), (omega, tail, seed)
    if report is not None:
        assert (report["eta_b"], report["det_sigma"]) == (0.0, 0.25), (omega, tail, report)


# eta_b at the default tail against the same report at tail 1e-30, where the
# reference Gaussian is wider than the state: Morse on the left, and
# Fellows-Smith as p nears p+ and omega_R goes to 0.
WIDE_REFERENCES = st.one_of(
    st.tuples(st.just(Morse), st.tuples(SCALE, MORSE_FRACTION).map(
        lambda well: (well[0], well[1] * 2.0 * math.sqrt(2.0 * well[0])))),
    st.tuples(st.just(FellowsSmith),
              st.tuples(st.floats(min_value=P_PLUS, max_value=0.0, exclude_min=True))),
)


@SETTINGS
@given(family=WIDE_REFERENCES)
@example(family=(Morse, (1.0, 0.9)))
@example(family=(Morse, (1.0, 2.0)))
@example(family=(Morse, (1.0, 0.2)))
@example(family=(Morse, (1.0, 1.4)))
@example(family=(FellowsSmith, (-0.14,)))
@example(family=(FellowsSmith, (P_PLUS + 1e-3,)))
@example(family=(FellowsSmith, (P_PLUS + 1e-4,)))
@example(family=(FellowsSmith, (P_PLUS + 1e-6,)))
@example(family=(FellowsSmith, (P_PLUS + 1e-16,)))
def test_eta_b_does_not_depend_on_the_tail(family):
    # The grid meets the tail on both factors of the overlap, or books the
    # reference's cut mass: either way the tail moves eta_b by rounding only.
    # The tail-1e-30 grid is wider, so it gets 16,385 points; a report that
    # warns of resolution error, or fails, claims no digits.
    build, params = family
    try:
        spec = build(*params)
        reports = [measure_report(spec), measure_report(spec, 1e-30, 16385)]
    except (SpecError, GridError):
        return
    if any(report.diagnostics.warnings for report in reports):
        return
    value, exact = (report.eta_b for report in reports)
    assert abs(value - exact) <= 1e-14 * exact + 1e-15, (spec, value, exact)


@SETTINGS
@given(exponent=st.floats(min_value=-300.0, max_value=304.0))
@example(exponent=-300.0)
@example(exponent=-162.0)  # omega^2 underflowed in V: the DVR missed its tail
@example(exponent=-161.0)  # V was subnormal: an oracle mismatch
@example(exponent=-160.0)  # E_dvr 5.6e-6 off
@example(exponent=155.0)  # omega^2 overflowed in V
@example(exponent=304.0)  # T's spectrum plus max |V| is below the float range up to 1e304
def test_harmonic_oracle_check_matches_measure_at_every_frequency(exponent):
    text = f"harmonic:omega={10.0**exponent!r}"
    code, out, err = run("oracle-check", "--potential", text, "--format", "json")
    assert (code, err) == (0, ""), (text, code, err)
    row = json.loads(out)
    assert row["eta_ng_analytic"] <= 1e-28 and row["eta_ng_fd"] <= 1e-16, (text, row)
    assert abs(row["e_diff"]) <= 1e-11 * row["e_analytic"], (text, row)


def morse_at(depth: float, fraction: float) -> Morse:
    """The Morse well of depth D at a fraction of its bound-state limit."""
    return Morse(depth, fraction * 2.0 * math.sqrt(2.0 * depth))


# (constructor, parameters) of every family with a sampled state, from the
# boxes above.
SAMPLED_FAMILIES = st.one_of(
    st.tuples(st.just(Harmonic), st.tuples(SCALE)),
    st.tuples(st.just(morse_at), st.tuples(SCALE, MORSE_FRACTION)),
    st.tuples(st.just(ModifiedPoschlTeller), st.tuples(SCALE, SCALE)),
    st.tuples(st.just(ModifiedIsotonic), st.tuples(SCALE)),
    st.tuples(st.just(FellowsSmith),
              st.tuples(st.floats(min_value=-1.0, max_value=0.0, exclude_min=True))),
)


@settings(max_examples=200, deadline=None)
@given(family=SAMPLED_FAMILIES, tail=st.one_of(st.just(1e-8), log_uniform(-300.0, -4.0)))
@example(family=(morse_at, (1.5e40, 7.4e-4 / (2.0 * math.sqrt(3e40)))), tail=1e-8)
@example(family=(ModifiedPoschlTeller, (1e35, 1.0)), tail=1e-8)
@example(family=(ModifiedIsotonic, (1e300,)), tail=1e-300)
@example(family=(morse_at, (1.0, 0.99)), tail=1e-4)  # 724 wide on the right
@example(family=(Harmonic, (5e-324,)), tail=1e-8)  # a seed past the float range
def test_sizing_samples_once_and_meets_the_tail(family, tail):
    # The seed is exact: one evaluation of the amplitude, and both sides end
    # below the tail. A seed that missed would raise GridError here. An
    # accepted log amplitude peaks within +-180, so it is exponentiated as it is.
    build, params = family
    try:
        spec = build(*params)
    except SpecError:
        assume(False)
    calls = []
    original = numerics.ground_state_log_amplitude

    def counted(other, x):
        log_amp, log_derivative = original(other, x)
        calls.append((x.size, float(np.max(log_amp))))
        return log_amp, log_derivative

    with mock.patch.object(numerics, "ground_state_log_amplitude", counted):
        try:
            wf = sized_ground_state(spec, tail)
        except GridError as exc:  # a seed past the float range
            assert str(exc) == f"{spec.kind} seed for tail {tail:g} leaves the float range", \
                (spec, tail)
            assert calls == [], (spec, tail)
            return
    # An even state is evaluated on the (n+1)/2 nodes x >= 0 of its symmetric grid.
    [(size, peak)] = calls
    n = DEFAULT_N_POINTS
    assert size == ((n + 1) // 2 if spec.even else n), (spec, tail)
    assert abs(peak) <= 180.0, (spec, tail, peak)
    peak = float(np.max(np.abs(wf.amplitude)))
    for end in (wf.amplitude[0], wf.amplitude[-1]):
        assert abs(end) <= tail * peak, (spec, tail, end / peak)


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([129, 257, 4097, 4099, 16385]), w=log_uniform(-150.0, 150.0))
# The fs:p=-0.5 seed: np.linspace differs from its mirror at 2,120 of 4,097 nodes.
@example(n=4097, w=6.904094907071799)
def test_symmetric_grid_is_mirror_exact(n, w):
    # Each half steps in from its own end, so x[n-1-k] = -x[k] bit for bit
    # and the centre node is +0.0; the left half is np.linspace's.
    x = numerics.Grid(-w, w, n).points()
    centre = n // 2
    assert x[centre + 1 :].tobytes() == (-x[centre - 1 :: -1]).tobytes(), (n, w)
    assert x[centre] == 0.0 and math.copysign(1.0, x[centre]) == 1.0, (n, w)
    assert x[:centre].tobytes() == np.linspace(-w, w, n)[:centre].tobytes(), (n, w)


@settings(max_examples=100, deadline=None)
@given(family=SAMPLED_FAMILIES.filter(lambda family: family[0] is not morse_at),
       tail=st.one_of(st.just(1e-8), log_uniform(-300.0, -4.0)))
@example(family=(FellowsSmith, (-0.5,)), tail=1e-8)
@example(family=(FellowsSmith, (0.0,)), tail=1e-8)
@example(family=(Harmonic, (5e-324,)), tail=1e-8)  # a seed past the float range
def test_even_state_is_sampled_with_exact_parity(family, tail):
    # The amplitude of an even state is exactly even and its log-derivative
    # exactly odd: each comes from the half grid x >= 0, mirrored. A
    # Fellows-Smith pass over the whole grid misses this by an ulp at an end
    # node, where the Kummer products round x and -x differently.
    build, params = family
    try:
        spec = build(*params)
    except SpecError:
        assume(False)
    try:
        wf = sized_ground_state(spec, tail)
    except GridError as exc:  # a seed past the float range
        assert str(exc) == f"{spec.kind} seed for tail {tail:g} leaves the float range", \
            (spec, tail)
        return
    assert np.array_equal(wf.amplitude, wf.amplitude[::-1]), (spec, tail)
    assert np.array_equal(wf.log_derivative, -wf.log_derivative[::-1]), (spec, tail)


# The text of every family with a sampled state, from the boxes above.
SAMPLED_TEXTS = st.one_of(
    SCALE.map(lambda omega: f"harmonic:omega={omega!r}"),
    st.builds(lambda depth, fraction:
              f"morse:D={depth!r},alpha={fraction * 2.0 * math.sqrt(2.0 * depth)!r}",
              SCALE, MORSE_FRACTION),
    st.builds(lambda depth, alpha: f"mpt:D={depth!r},alpha={alpha!r}", SCALE, SCALE),
    SCALE.map(lambda a: f"mio:a={a!r}"),
    st.floats(min_value=-1.0, max_value=0.0, exclude_min=True).map(lambda p: f"fs:p={p!r}"),
)


@settings(max_examples=30, deadline=None)
@given(text=SAMPLED_TEXTS, tail=st.one_of(st.just(1e-8), log_uniform(-300.0, -4.0)))
@example(text="mio:a=1e20", tail=1e-8)  # the reference is unresolved: exit 2, as measure
@example(text="harmonic:omega=1", tail=1e-100)  # once below det sigma = 1/4, now exact
@example(text="mio:a=1e-169", tail=1e-8)  # E = -4e169: the DVR is lost to rounding
@example(text="morse:D=1,alpha=0.5", tail=1e-8)
def test_oracle_check_reports_what_measure_reports(text, tail):
    # One evaluator: oracle-check's analytic eta_ng is measure's, cell for
    # cell, with measure's warnings first; a spec that measure cannot report
    # fails there with the same line, before the DVR solve.
    flags = ("--potential", text, "--tail", repr(tail))
    code, out, err = run("oracle-check", *flags)
    assert code in (0, 1, 2), (text, tail, code)
    measured, measure_out, measure_err = run("measure", *flags)
    lines = err.splitlines()
    if code == 2:
        assert out == "", (text, tail)
        *warnings, line = lines
        assert line.startswith("error: "), (text, tail, line)
        if measured == 2:
            assert measure_err.splitlines() == lines, (text, tail)
        else:
            assert warnings == measure_err.splitlines(), (text, tail)
        return
    assert measured == 0, (text, tail, measure_err)
    assert lines[: len(lines) - code] == measure_err.splitlines(), (text, tail)
    header, row = out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    measure_header, measure_row = measure_out.splitlines()
    measure_cells = dict(zip(measure_header.split(","), measure_row.split(",")))
    assert cells["eta_ng_analytic"] == measure_cells["eta_ng"], (text, tail)
