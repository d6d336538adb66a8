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


def check_measure(text: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["measure", "--potential", text, "--format", "json"])
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().splitlines()[-1].startswith("error: ")
        return
    assert code == 0, (text, code, err.getvalue())
    report = json.loads(out.getvalue())
    values = [report[name] for name in FIELDS]
    assert all(isinstance(v, float) and math.isfinite(v) for v in values), (text, report)
    assert 0.0 <= report["eta_b"] <= 1.0, (text, report)
    assert report["eta_ng"] >= 0.0, (text, report)
    assert report["det_sigma"] >= 0.25 - 1e-6, (text, report)


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


# Below a of about 2e-5 every point fails alike: Phi(4/a, 1/2 + 4/a; 1/a)
# needs more series terms than the cap, and each such point costs about a
# second, so the box keeps a few decades of that regime, not 300.
@SETTINGS
@given(a=st.one_of(log_uniform(-3.0, 3.0), log_uniform(-8.0, 300.0)))
@example(a=1e300)  # reference Gaussian far narrower than the grid spacing
@example(a=1.7e308)  # omega_R overflows
def test_mio(a):
    check_measure(f"mio:a={a!r}")
