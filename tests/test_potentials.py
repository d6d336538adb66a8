import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from nonlinosc import potentials, specfun
from nonlinosc.errors import DomainError, SpecError, UnsupportedSpecError
from nonlinosc.measures import measure_report
from nonlinosc.numerics import first_derivative, sized_ground_state
from nonlinosc.potentials import (
    P_PLUS,
    FellowsSmith,
    Harmonic,
    ModifiedIsotonic,
    ModifiedPoschlTeller,
    Morse,
    PerturbedHarmonic,
    evaluate_potential,
    parse_potential_spec,
    sweep_axes,
    with_parameter,
)

from helpers import (
    P_MINUS,
    fourth_order_second_derivative,
    morse_bound_state_count,
    second_difference,
)

CATALOG = [
    Harmonic(1.0),
    Harmonic(10.0),
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


def fs_potential_oracle(p: float, x: float) -> float:
    """Fellows-Smith potential evaluated from scratch with mpmath."""
    z = mp.mpf(x) ** 2
    phi1 = mp.hyp1f1((1 + p) / 2, mp.mpf(1) / 2, z)
    phi3 = mp.hyp1f1((3 + p) / 2, mp.mpf(3) / 2, z)
    value = -2 * p + z / 2 + 4 * (1 + p) * z * phi3 / phi1**2 * ((1 + p) * phi3 - phi1)
    return float(value)


class TestEvaluatePotential:
    def test_morse_at_origin(self):
        assert evaluate_potential(Morse(1.0, 1.0), 0.0) == pytest.approx(-1.0, abs=1e-14)

    def test_mio_at_origin(self):
        assert evaluate_potential(ModifiedIsotonic(1.0), 0.0) == pytest.approx(-6.0, abs=1e-13)

    def test_mpt_at_origin(self):
        assert evaluate_potential(ModifiedPoschlTeller(2.0, 1.0), 0.0) == pytest.approx(-2.0)

    @pytest.mark.parametrize("x", [0.0, 0.7, 1.6, 3.0])
    def test_fellows_smith_against_series_oracle(self, x):
        p = -0.6
        assert evaluate_potential(FellowsSmith(p), x) == pytest.approx(
            fs_potential_oracle(p, x), rel=1e-10, abs=1e-10
        )

    def test_fellows_smith_wide_range_no_overflow(self):
        x = np.linspace(-30.0, 30.0, 201)
        v = evaluate_potential(FellowsSmith(-0.6), x)
        assert np.all(np.isfinite(v))
        # supersymmetric partner of the harmonic well: V -> x^2/2 far out
        assert v[-1] / (0.5 * 30.0**2) == pytest.approx(1.0, abs=1e-3)

    def test_perturbed_quartic_form(self):
        spec = PerturbedHarmonic(2.0, 0.1, 0.2)
        x = 1.3
        expected = 0.5 * 4.0 * x**2 + 0.1 * x**3 + 0.2 * x**4
        assert evaluate_potential(spec, x) == pytest.approx(expected, rel=1e-14)

    def test_non_finite_x_raises(self):
        with pytest.raises(DomainError):
            evaluate_potential(Harmonic(1.0), math.inf)


class TestGroundState:
    def test_harmonic_amplitude_at_origin(self):
        assert np.exp(Harmonic(1.0).log_amplitude(np.array([0.0])))[0] == pytest.approx(
            math.pi ** -0.25, rel=1e-13
        )

    def test_mpt_sech_profile_for_unit_s(self):
        # s = (-1 + sqrt(1 + 8))/2 = 1, so the amplitude is proportional to sech.
        spec = ModifiedPoschlTeller(1.0, 1.0)
        x = np.array([0.0, 0.5, 1.5, 3.0])
        amp = np.exp(spec.log_amplitude(x))
        ratio = amp / amp[0]
        assert np.allclose(ratio, 1.0 / np.cosh(x), rtol=1e-12)

    def test_morse_ratio_against_fd_oracle(self):
        from nonlinosc.oracle import fd_ground_state

        spec = Morse(1.0, 1.0)
        grid = sized_ground_state(spec).grid
        fd = fd_ground_state(spec, grid)
        x = grid.points()
        i0 = int(np.argmin(np.abs(x)))
        i1 = int(np.argmin(np.abs(x - 1.0)))
        amp = np.exp(spec.log_amplitude(x[[i0, i1]]))
        analytic_ratio = amp[1] / amp[0]
        fd_ratio = fd.wavefunction.amplitude[i1] / fd.wavefunction.amplitude[i0]
        assert analytic_ratio == pytest.approx(fd_ratio, abs=1e-5)

    def test_perturbed_harmonic_unsupported(self):
        with pytest.raises(UnsupportedSpecError):
            PerturbedHarmonic(1.0, 0.1, 0.1).log_amplitude(np.array([0.0]))

    @pytest.mark.parametrize("spec", CATALOG)
    def test_decay_at_infinity(self, spec):
        wf = sized_ground_state(spec)
        assert wf.tail_ratio <= 1e-7


class TestReferenceFrequency:
    def test_morse(self):
        assert Morse(0.5, 1.0).omega_r() == pytest.approx(1.0, rel=1e-14)

    def test_mio_sqrt37(self):
        assert ModifiedIsotonic(1.0).omega_r() == pytest.approx(
            math.sqrt(37.0), rel=1e-14
        )

    def test_fellows_smith_absent_below_p_plus(self):
        assert FellowsSmith(-0.6).omega_r() is None
        assert FellowsSmith(-0.9).omega_r() is None

    def test_fellows_smith_present_in_single_well(self):
        p = -0.1
        expected = math.sqrt(1.0 + 8.0 * p * (1.0 + p))
        assert FellowsSmith(p).omega_r() == pytest.approx(expected, rel=1e-14)

    def test_harmonic_and_perturbed(self):
        assert Harmonic(3.0).omega_r() == 3.0
        assert PerturbedHarmonic(2.0, 0.1, 0.0).omega_r() == 2.0

    @pytest.mark.parametrize(
        "spec",
        [Harmonic(1.0), Morse(1.0, 1.0), ModifiedPoschlTeller(2.0, 0.7),
         ModifiedIsotonic(3.0), FellowsSmith(-0.05)],
    )
    def test_curvature_at_minimum_matches(self, spec):
        # second finite difference of V at its (x = 0) global minimum
        curvature = second_difference(lambda x: evaluate_potential(spec, x), 0.0)
        assert curvature == pytest.approx(spec.omega_r() ** 2, rel=1e-4)


class TestGroundEnergy:
    def test_mpt_unit_case(self):
        assert ModifiedPoschlTeller(1.0, 1.0).energy() == pytest.approx(-0.5, rel=1e-13)

    def test_fellows_smith(self):
        assert FellowsSmith(-0.5).energy() == pytest.approx(1.0, rel=1e-14)

    def test_morse_quadratic_alpha_reading(self):
        n = math.sqrt(2.0) - 0.5
        assert Morse(1.0, 1.0).energy() == pytest.approx(-0.5 * n**2, rel=1e-13)

    def test_harmonic(self):
        assert Harmonic(3.0).energy() == pytest.approx(1.5)

    def test_mio(self):
        assert ModifiedIsotonic(8.0).energy() == pytest.approx(0.0, abs=1e-15)

    def test_perturbed_is_the_report_energy(self):
        spec = PerturbedHarmonic(2.0, 0.3, 0.1)
        assert spec.energy() == measure_report(spec).ground_energy


class TestMorseBoundStateCount:
    def test_boundary_is_zero(self):
        assert morse_bound_state_count(1.0, 2.0 * math.sqrt(2.0)) == 0

    def test_single_state(self):
        assert morse_bound_state_count(1.0, 1.0) == 1

    def test_four_states(self):
        # N = sqrt(16)/1 - 1/2 = 3.5
        assert morse_bound_state_count(8.0, 1.0) == 4

    def test_integer_index_excludes_top(self):
        # N = 1 exactly: levels require n < N, so only n = 0 exists.
        assert morse_bound_state_count(1.125, 1.0) == 1

    def test_beyond_limit_zero(self):
        assert morse_bound_state_count(1.0, 2.9) == 0


def fs_well_count(p: float) -> int:
    """Strict local minima of the Fellows-Smith potential on [-6, 6]."""
    v = FellowsSmith(p).potential(np.linspace(-6.0, 6.0, 4001))
    return int(np.count_nonzero((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])))


class TestWellStructure:
    # p+- = -1/2 +- sqrt(2)/4 split (-1, 0] into single-, double- and
    # triple-well regions of the potential itself.
    def test_single(self):
        assert fs_well_count(-0.1) == 1

    def test_double(self):
        assert fs_well_count(-0.6) == 2

    def test_triple(self):
        assert fs_well_count(-0.9) == 3

    def test_boundaries_closed_upward(self):
        # Boundary values belong to the shallower structure.
        assert fs_well_count(P_PLUS) == 1
        assert fs_well_count(P_MINUS) == 2

    def test_boundary_constants_carried(self):
        # Both are the roots of the curvature 1 + 8p(1 + p) at x = 0, and a
        # well appears just below each.
        for boundary in (P_PLUS, P_MINUS):
            assert 1.0 + 8.0 * boundary * (1.0 + boundary) == pytest.approx(0.0, abs=1e-15)
        assert [fs_well_count(P_PLUS + d) for d in (1e-3, -1e-3)] == [1, 2]
        assert [fs_well_count(P_MINUS + d) for d in (1e-3, -1e-3)] == [2, 3]


class TestSpecValidation:
    def test_morse_bound_state_constraint(self):
        with pytest.raises(SpecError):
            Morse(1.0, 3.0)

    def test_positivity(self):
        with pytest.raises(SpecError):
            Harmonic(-1.0)
        with pytest.raises(SpecError):
            ModifiedIsotonic(0.0)

    @pytest.mark.parametrize("a", [5e-324, 2.2e-308])
    def test_mio_four_over_a_must_be_finite(self, a):
        # 4/a overflows, so the ground energy 1/2 - 4/a would be -inf.
        with pytest.raises(SpecError, match="4/a"):
            ModifiedIsotonic(a)

    def test_fellows_smith_range(self):
        with pytest.raises(SpecError):
            FellowsSmith(-1.0)
        with pytest.raises(SpecError):
            FellowsSmith(0.1)
        FellowsSmith(0.0)  # p = 0 is the harmonic end of the family

    def test_perturbative_guard(self):
        with pytest.raises(SpecError):
            PerturbedHarmonic(1.0, 0.6, 0.0)


# One text form per family.
FAMILY_TEXTS = [
    ("morse:D=1,alpha=1", Morse(1.0, 1.0)),
    ("mpt:D=1,alpha=0.5", ModifiedPoschlTeller(1.0, 0.5)),
    ("mio:a=2", ModifiedIsotonic(2.0)),
    ("fs:p=-0.4", FellowsSmith(-0.4)),
    ("harmonic:omega=1", Harmonic(1.0)),
    ("pert:omega=1,eps3=0.1,eps4=0.2", PerturbedHarmonic(1.0, 0.1, 0.2)),
]
# Parse keys of each family (also its sweep axes, in declaration order) and
# the keys it requires.
FAMILY_KEYS = {
    "morse": (("D", "alpha"), ["D", "alpha"]),
    "mpt": (("D", "alpha"), ["D", "alpha"]),
    "mio": (("a",), ["a"]),
    "fs": (("p",), ["p"]),
    "harmonic": (("omega",), ["omega"]),
    "pert": (("omega", "eps3", "eps4"), ["omega"]),
}


class TestParsing:
    @pytest.mark.parametrize("text,expected", FAMILY_TEXTS)
    def test_round_trip(self, text, expected):
        assert parse_potential_spec(text) == expected

    @pytest.mark.parametrize("text,expected", FAMILY_TEXTS)
    def test_rebuilds_from_field_values(self, text, expected):
        kind = type(expected).kind
        assert text.startswith(f"{kind}:")
        axes, _ = FAMILY_KEYS[kind]
        values = ",".join(f"{name}={getattr(expected, name)!r}" for name in axes)
        assert parse_potential_spec(f"{kind}:{values}") == expected

    @pytest.mark.parametrize("text,expected", FAMILY_TEXTS)
    def test_sweep_axes_are_fields_without_eps_guard(self, text, expected):
        fields = tuple(f.name for f in dataclasses.fields(expected))
        assert sweep_axes(expected) == fields == FAMILY_KEYS[text.partition(":")[0]][0]

    @pytest.mark.parametrize("text,expected", FAMILY_TEXTS)
    def test_error_messages(self, text, expected):
        kind = text.partition(":")[0]
        axes, required = FAMILY_KEYS[kind]
        with pytest.raises(SpecError) as exc:
            parse_potential_spec(f"{kind}:{text.partition(':')[2]},eps_guard=1")
        assert str(exc.value) == f"unknown parameter 'eps_guard=1' for potential '{kind}'"
        with pytest.raises(SpecError) as exc:
            parse_potential_spec(f"{kind}:")
        assert str(exc.value) == f"potential '{kind}' missing parameters: {required}"
        with pytest.raises(SpecError) as exc:
            with_parameter(expected, "eps_guard", 1.0)
        assert str(exc.value) == (
            f"{type(expected).__name__} has no sweep axis 'eps_guard'; choose from {list(axes)}"
        )

    def test_unknown_family_message(self):
        with pytest.raises(SpecError) as exc:
            parse_potential_spec("gauss:sigma=1")
        assert str(exc.value) == (
            "unknown potential 'gauss:sigma=1'; expected one of: "
            "fs, harmonic, mio, morse, mpt, pert"
        )

    @pytest.mark.parametrize(
        "text",
        ["gauss:sigma=1", "morse:D=1", "morse:D=1,beta=2", "mio:a=abc", "morse"],
    )
    def test_rejects(self, text):
        with pytest.raises(SpecError):
            parse_potential_spec(text)

    def test_with_parameter(self):
        spec = with_parameter(Morse(1.0, 1.0), "alpha", 0.7)
        assert spec == Morse(1.0, 0.7)
        with pytest.raises(SpecError):
            with_parameter(Morse(1.0, 1.0), "omega", 0.7)

    def test_sweep_axes(self):
        assert sweep_axes(ModifiedIsotonic(1.0)) == ("a",)


class TestFellowsSmithSeed:
    @pytest.mark.parametrize("tail", [1e-4, 1e-8, 1e-14, 1e-30, 1e-100, 1e-300])
    def test_p_zero_is_the_harmonic_seed(self, tail):
        depth = math.log(1.0 / tail)
        assert FellowsSmith(0.0).seed_halfwidths(depth) == Harmonic(1.0).seed_halfwidths(depth)

    @pytest.mark.parametrize("p", [-0.1, -0.5, P_MINUS, -0.9999, -1.0 + 1e-9])
    def test_seed_solves_the_tail_equation(self, p):
        # w^2/2 + p ln w = depth + (ln Gamma((1+p)/2) - ln Gamma(1/2))/2, and 1.1 w is returned.
        depth = math.log(1e8)
        left, right = FellowsSmith(p).seed_halfwidths(depth)
        w = left / 1.1
        t = depth + 0.5 * (math.lgamma(0.5 * (1.0 + p)) - math.lgamma(0.5))
        assert left == right
        assert 0.5 * w * w + p * math.log(w) == pytest.approx(t, rel=1e-6)

    def test_seed_widens_towards_p_minus_one(self):
        depth = math.log(1e8)
        widths = [FellowsSmith(p).seed_halfwidths(depth)[0] for p in (0.0, -0.5, -0.9, -0.9999)]
        assert all(narrow < wide for narrow, wide in zip(widths, widths[1:])), widths


class TestPrefactorCache:
    """Each family adds its constant log prefactor where it samples; only
    the Fellows-Smith family evaluates Kummer Phi."""

    @pytest.mark.parametrize(
        "spec",
        [
            Harmonic(1.0),
            Morse(1.0, 1.0),
            ModifiedPoschlTeller(1.0, 0.5),
            ModifiedIsotonic(0.01),
            ModifiedIsotonic(3.0),
        ],
        ids=["harmonic", "morse", "mpt", "mio-0.01", "mio-3"],
    )
    def test_report_makes_no_kummer_call(self, spec, monkeypatch):
        # Only the Fellows-Smith family needs Phi; MIO samples a closed form.
        def forbidden(*args):
            raise AssertionError("kummer_phi_log_grid called")

        monkeypatch.setattr(specfun, "kummer_phi_log_grid", forbidden)
        monkeypatch.setattr(potentials, "kummer_phi_log_grid", forbidden)
        assert measure_report(spec).eta_b >= 0.0

    @pytest.mark.parametrize("p", [0.0, -0.1, P_PLUS, -0.6, P_MINUS, -0.9999, -1.0 + 1e-9])
    def test_fellows_smith_report_makes_one_kummer_call(self, p, monkeypatch):
        # The seed meets the tail at once, and the report keeps that sample.
        calls = []
        original = potentials.kummer_phi_log_grid

        def counted(a, b, z):
            calls.append(z.size)
            return original(a, b, z)

        monkeypatch.setattr(potentials, "kummer_phi_log_grid", counted)
        assert measure_report(FellowsSmith(p)).eta_ng >= 0.0
        assert calls == [4097]

    @pytest.mark.parametrize(
        "spec,axis,value",
        [
            (Harmonic(1.0), "omega", 3.0),
            (Morse(1.0, 1.0), "alpha", 0.5),
            (ModifiedPoschlTeller(1.0, 0.5), "D", 4.0),
            (FellowsSmith(-0.4), "p", -0.1),
        ],
        ids=lambda v: getattr(v, "kind", None),
    )
    def test_with_parameter_carries_its_own_prefactor(self, spec, axis, value):
        x = np.linspace(-3.0, 3.0, 7)
        before = spec.log_amplitude(x)
        other = with_parameter(spec, axis, value)
        fresh = type(spec)(**{**dataclasses.asdict(spec), axis: value})
        assert other.log_amplitude(x).tobytes() == fresh.log_amplitude(x).tobytes()
        assert spec.log_amplitude(x).tobytes() == before.tobytes()


class TestSchrodingerConsistency:
    @pytest.mark.parametrize("spec", CATALOG)
    def test_local_energy_residual(self, spec):
        # The analytic amplitude must solve the eigenproblem of its own
        # potential: [-phi''/2 + V phi]/phi - E_0 small wherever phi is
        # appreciable.
        wf = sized_ground_state(spec, n_points=8193)
        grid = wf.grid
        x = grid.points()
        v = np.asarray(evaluate_potential(spec, x))
        d2 = fourth_order_second_derivative(wf.amplitude, grid.spacing)
        peak = float(np.max(np.abs(wf.amplitude)))
        inner = slice(2, -2)
        mask = np.abs(wf.amplitude[inner]) > 1e-6 * peak
        residual = (
            -0.5 * d2[inner][mask] + v[inner][mask] * wf.amplitude[inner][mask]
        ) / wf.amplitude[inner][mask] - spec.energy()
        probes = residual[:: max(1, residual.size // 50)]
        assert probes.size >= 50
        assert float(np.max(np.abs(probes))) < 1e-4

    def test_morse_decay_slopes(self):
        spec = Morse(1.0, 1.0)
        n = spec.n_index
        wf = sized_ground_state(spec)
        grid = wf.grid
        x = grid.points()
        log_amp = np.log(np.maximum(wf.amplitude, 1e-300))
        slope = first_derivative(log_amp, grid.spacing)
        # analytic log-slope: -alpha N + alpha (N + 1/2) e^{-alpha x}
        for target_x in (0.6 * grid.x_max, 0.85 * grid.x_max):
            i = int(np.argmin(np.abs(x - target_x)))
            expected = -spec.alpha * n + spec.alpha * (n + 0.5) * math.exp(-spec.alpha * x[i])
            assert slope[i] == pytest.approx(expected, rel=1e-3)
        # double-exponential wall on the left: slope far exceeds the right decay
        i_left = int(np.argmin(np.abs(x - 0.9 * grid.x_min)))
        assert slope[i_left] > 5.0 * spec.alpha * n
