"""Property test of the ``measure`` command over wide parameter boxes.

Every valid spec has one of two outcomes: exit 0 with a report that holds
the invariants (0 <= eta_b <= 1, eta_ng >= 0, det sigma >= 1/4 - 1e-6, every
value finite), or exit 2 with an ``error:`` line. An exception that escapes
``cli.main`` fails the test.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from nonlinosc.cli import main
from nonlinosc.numerics import sized_ground_state
from nonlinosc.potentials import P_MINUS, P_PLUS, FellowsSmith

# Extreme parameters overflow numpy intermediates on their way to an error.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FIELDS = ("eta_b", "eta_ng", "omega_r", "ground_energy", "det_sigma", "fidelity_to_reference")
SETTINGS = settings(max_examples=40, deadline=None)


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


def check_measure(
    text: str, *flags: str, blank: tuple[str, ...] = (), names: tuple[str, ...] = ()
) -> dict | None:
    """The report of a run that exits 0, None for one that exits 2; fields
    named in ``blank`` must be empty, every other one finite. With
    ``names``, an exit 2 prints one error line that names one of them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["measure", "--potential", text, "--format", "json", *flags])
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert lines[-1].startswith("error: ")
        if names:
            assert len(lines) == 1 and any(name in lines[0] for name in names), (text, lines)
        return None
    assert code == 0, (text, code, err.getvalue())
    report = json.loads(out.getvalue())
    assert [name for name in FIELDS if report[name] is None] == list(blank), (text, report)
    values = [report[name] for name in FIELDS if name not in blank]
    assert all(isinstance(v, float) and math.isfinite(v) for v in values), (text, report)
    assert "eta_b" in blank or 0.0 <= report["eta_b"] <= 1.0, (text, report)
    assert report["eta_ng"] >= 0.0, (text, report)
    assert report["det_sigma"] >= 0.25 - 1e-6, (text, report)
    return report


@SETTINGS
@given(omega=SCALE)
@example(omega=1e-8)  # wider than the grid cap
@example(omega=5e-324)  # omega/pi underflows to 0
def test_harmonic(omega):
    check_measure(f"harmonic:omega={omega!r}")


@SETTINGS
@given(depth=SCALE, fraction=MORSE_FRACTION)
@example(depth=1e-300, fraction=1e-300 / (2.0 * math.sqrt(2e-300)))  # omega_R underflows
def test_morse(depth, fraction):
    check_measure(f"morse:D={depth!r},alpha={fraction * 2.0 * math.sqrt(2.0 * depth)!r}")


@SETTINGS
@given(depth=SCALE, alpha=SCALE)
@example(depth=1e6, alpha=1.0)  # about 4 grid points per state width
@example(depth=1.0, alpha=1e-4)  # truncated at the grid cap
@example(depth=1e300, alpha=1e-300)  # alpha^2 underflows to 0
@example(depth=1e-300, alpha=1e300)  # alpha^2 overflows
def test_mpt(depth, alpha):
    check_measure(f"mpt:D={depth!r},alpha={alpha!r}")


@SETTINGS
@given(a=st.one_of(log_uniform(-3.0, 3.0), log_uniform(-300.0, 300.0)))
@example(a=1e300)  # reference Gaussian far narrower than the grid spacing
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
    # Sizing: the seed meets the tail at once, so the grid is never grown.
    spec = FellowsSmith(p)
    left, right = spec.seed_halfwidths(math.log(1.0 / tail))
    wf = sized_ground_state(spec, tail)
    assert (wf.grid.x_min, wf.grid.x_max) == (-left, right), (p, tail)
    assert wf.tail_ratio <= tail, (p, tail)
    # Below a tail of about 1e-100 the p = 0 (harmonic) report fails with the
    # entropy_h DomainError that Harmonic(1) also meets there.
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
