import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nonlinosc import cli
from nonlinosc.cli import main
from nonlinosc.errors import (
    ConvergenceError,
    DomainError,
    GridError,
    NonlinoscError as HANDLED_ERRORS,
    NormalizationError,
    SpecError,
)
from nonlinosc.measures import measure_report
from nonlinosc.perturbation import parametric_curve, scatter_sample
from nonlinosc.potentials import Harmonic, Morse, parse_potential_spec, with_parameter
from nonlinosc.specfun import eta_ng_of_excess

import mpmath as mp

from helpers import closed_excess


def mio_quadrature_excess(a: float) -> float:
    """det sigma - 1/4 of the MIO ground state by 40-digit mpmath quadrature,
    where the closed form's U function does not converge (a = 1e-6)."""
    with mp.workdps(40):
        def density(u):
            return mp.exp(-(u**2) - (4 / mp.mpf(a)) * mp.log1p(a * u**2))

        breaks = [0, 0.5, 1, 2, 4, 10, mp.inf]
        norm = mp.quad(density, breaks)
        var_x = mp.quad(lambda u: u**2 * density(u), breaks) / norm
        var_p = mp.quad(lambda u: (u * (1 + 4 / (1 + a * u**2))) ** 2 * density(u), breaks) / norm
        return float(var_x * var_p - mp.mpf(1) / 4)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """Run the CLI in a fresh interpreter, so a numpy RuntimeWarning would reach stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "nonlinosc.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )


def forbid_evaluation(monkeypatch) -> None:
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluation started")

    for name in ("measure_report", "scatter_sample", "parametric_curve"):
        monkeypatch.setattr(f"nonlinosc.cli.{name}", no_evaluation)


class TestMeasure:
    def test_harmonic_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--potential", "harmonic:omega=1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eta_b"] <= 1e-6
        assert payload["eta_ng"] <= 1e-6
        assert payload["omega_r"] == 1.0
        assert payload["ground_energy"] == 0.5

    def test_fellows_smith_csv_empty_eta_b(self, capsys):
        code, out, _ = run_cli(capsys, "measure", "--potential", "fs:p=-0.6")
        assert code == 0
        header, row = out.strip().split("\n")
        cols = header.split(",")
        values = row.split(",")
        assert values[cols.index("eta_b")] == ""
        assert float(values[cols.index("eta_ng")]) > 0.0
        assert out.endswith("\n")

    def test_invalid_morse_nonzero_exit(self, capsys):
        code, out, err = run_cli(capsys, "measure", "--potential", "morse:D=1,alpha=3")
        assert code != 0
        assert out == ""
        assert "bound-state" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("a", ["5e-324", "2.2e-308"])
    def test_mio_overflowing_four_over_a_exits_2(self, capsys, a):
        code, out, err = run_cli(capsys, "measure", "--potential", f"mio:a={a}")
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == ["error: MIO 4/a must be finite and positive, got inf"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--potential", "pert:omega=1e-300"],
            ["measure", "--potential", "pert:omega=1e-170,eps3=0.01"],
            ["oracle-check", "--potential", "pert:omega=1e-300"],
            ["measure", "--potential", "pert:omega=1e300,eps4=0.1"],
        ],
        ids=["measure-1e-300", "measure-1e-170", "oracle-check-1e-300", "measure-1e300"],
    )
    def test_pert_omega_out_of_float_range_exits_2(self, capsys, argv):
        # (2 omega)^1.5 or omega^2 underflows to 0 or overflows.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        omega = argv[2].partition("=")[2].partition(",")[0]
        assert err.splitlines() == [
            f"error: omega={float(omega)!r}: (2 omega)^1.5 or omega^2 under- or overflows"
        ]

    def test_narrowest_harmonic_reports_exactly(self):
        # The grid is 1e-149 wide: in physical units <p^2> would overflow.
        # eta_ng is rounding (exact 0) of the half-grid sample on the
        # grid built from both ends.
        done = run_fresh("measure", "--potential", "harmonic:omega=1e300")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[1] == "0,1.91704109479e-30,1e+300,5e+299,0.25,1"

    @pytest.mark.parametrize("omega, flags, tail", [
        ("1e-308", (), "1e-08"),
        ("5e-324", (), "1e-08"),
        ("1e-306", ("--tail", "1e-300"), "1e-300"),
    ], ids=["1e-308", "5e-324", "1e-306-tail-1e-300"])
    def test_seed_past_the_float_range_is_named(self, capsys, omega, flags, tail):
        # 2 depth / omega overflows, so the seed halfwidth is inf.
        code, out, err = run_cli(capsys, "measure", "--potential", f"harmonic:omega={omega}", *flags)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: harmonic seed for tail {tail} leaves the float range"]

    def test_overflowing_position_moment_is_one_error_line(self):
        # N = 7e30 and omega_R = 3.4e-318: the grid is 7e159 wide and var_x is
        # about 1 / (2 omega_R) = 1.5e317, past the float range.
        done = run_fresh("measure", "--potential",
                         "morse:D=1.2143592524595229e-287,alpha=6.848754358786849e-175")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.splitlines() == ["error: <x^2> = inf overflowed the float range"]

    def test_morse_energy_with_n_squared_past_the_float_range(self, capsys):
        # N = 1.5e160: N**2 alone overflows, while E = -(alpha N)^2 / 2 is finite.
        depth, alpha = 1.062543347313794e294, 2.9839065777032226e-14
        code, out, err = run_cli(capsys, "measure", "--potential",
                                 f"morse:D={depth!r},alpha={alpha!r}", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["det_sigma"] == pytest.approx(0.25, abs=1e-9)
        energy = measure_report(parse_potential_spec(f"morse:D={depth!r},alpha={alpha!r}"))
        expected = -0.5 * (math.sqrt(2.0 * depth) - 0.5 * alpha) ** 2
        assert energy.ground_energy == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("text,tail", [("harmonic:omega=1", 1e-100), ("mio:a=1e-6", 1e-4)])
    def test_sample_once_below_a_quarter_reports_exactly(self, capsys, text, tail):
        # Simpson moments put det sigma a few 1e-9 below 1/4 here, a GridError;
        # the excess is a sum of squares and reports eta_NG and det sigma to 1e-15.
        code, out, err = run_cli(capsys, "measure", "--potential", text, "--tail", repr(tail),
                                 "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        spec = parse_potential_spec(text)
        excess = 0.0 if isinstance(spec, Harmonic) else mio_quadrature_excess(spec.a)
        assert report["det_sigma"] == float(f"{0.25 + excess:.12g}")  # printed to 12 digits
        assert report["eta_ng"] == pytest.approx(eta_ng_of_excess(excess), abs=1e-15)

    def test_wide_state_reports_exactly(self, capsys):
        # The state is 1,048 wide: its whole seed is sampled, and eta_NG is the closed form's.
        text = "mpt:D=1,alpha=1e-4"
        code, out, err = run_cli(capsys, "measure", "--potential", text, "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        excess = closed_excess(parse_potential_spec(text))
        assert report["det_sigma"] == float(f"{0.25 + excess:.12g}")  # printed to 12 digits
        assert report["eta_ng"] == pytest.approx(eta_ng_of_excess(excess), rel=2e-13)

    def test_morse_edge_at_the_default_grid_is_unresolved(self, capsys):
        # The state is 1,370 wide with a peak 1/alpha = 0.36 wide: 4,097 points
        # cannot resolve it, and the measure-morse-edge golden uses 16,385.
        code, out, err = run_cli(capsys, "measure", "--potential", "morse:D=1,alpha=2.8")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: det sigma - 1/4 = 24.4 moves by 2.8 on every other node of 4097 points over "
            "[-1.54206, 1368.35] at tail 1e-08: the grid does not resolve the state"]

    def test_rise_between_two_nodes_is_unresolved(self, capsys):
        # N = 4e-5: the state peaks at x = 3.33, inside the first 41.8-wide step of its grid.
        # There the node sums give det sigma 0.75 (exact 3113.05) and move by only 5.6e-06.
        code, out, err = run_cli(capsys, "measure", "--potential", "morse:D=1,alpha=2.8282")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: morse state peaks at node 1 of 4097 over [-1.52977, 171017]: "
            "the grid does not resolve the state"]

    def test_parse_error_nonzero_exit(self, capsys):
        code, _, err = run_cli(capsys, "measure", "--potential", "nope:x=1")
        assert code != 0
        assert "unknown potential" in err

    @pytest.mark.parametrize(
        "text,key",
        [("morse:D=1,alpha=1,alpha=2", "alpha"), ("pert:omega=1,eps3=0.1,eps3=0.2", "eps3")],
        ids=["morse", "pert"],
    )
    def test_repeated_parameter_exits_2(self, capsys, text, key):
        for argv in (["measure"], ["sweep", "--axis", key, "--from", "0", "--to", "0.1"],
                     ["oracle-check"]):
            code, out, err = run_cli(capsys, *argv, "--potential", text)
            assert code == 2
            assert out == ""
            assert err.splitlines() == [
                f"error: repeated parameter {key!r} in potential {text!r}"
            ]

    @pytest.mark.parametrize("target", ["missing-directory", "directory", "file-as-directory"])
    def test_unwritable_out_path_exits_2(self, capsys, monkeypatch, tmp_path, target):
        (tmp_path / "file").write_bytes(b"")
        path = {"missing-directory": tmp_path / "missing" / "x.csv", "directory": tmp_path,
                "file-as-directory": tmp_path / "file" / "x.csv"}[target]
        forbid_evaluation(monkeypatch)  # the path is checked before any work
        code, out, err = run_cli(
            capsys, "measure", "--potential", "harmonic:omega=1", "--out", str(path)
        )
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: ") and str(path) in line
        assert (tmp_path / "file").read_bytes() == b""

    def test_failed_command_leaves_existing_out_untouched(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"kept\n")
        code, out, err = run_cli(
            capsys, "measure", "--potential", "morse:D=1,alpha=3", "--out", str(path)
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert path.read_bytes() == b"kept\n"

    def test_seed_is_scatter_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--potential", "harmonic:omega=1", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


GRID_FLAG_COMMANDS = {
    "measure-pert": ["measure", "--potential", "pert:omega=1,eps3=0.1"],
    "measure-harmonic": ["measure", "--potential", "harmonic:omega=1"],
    "sweep-morse": ["sweep", "--potential", "morse:D=1,alpha=1", "--axis", "alpha",
                    "--from", "0.5", "--to", "1", "--points", "3"],
    "sweep-pert": ["sweep", "--potential", "pert:omega=1", "--axis", "eps3",
                   "--from", "0", "--to", "0.1", "--points", "3"],
    "oracle-check": ["oracle-check", "--potential", "mpt:D=1,alpha=1"],
}
# These build no grid, so argparse rejects the grid flags themselves.
NO_GRID_COMMANDS = {
    "scatter": ["scatter", "--n", "5"],
    "curve": ["curve", "--points", "5"],
}
BAD_GRID_FLAGS = {
    "tail": (["--tail", "5"], "error: target_tail must lie in (0, 1e-4], got 5.0"),
    "grid-points": (["--grid-points", "100"], "error: grid requires n_points >= 128, got 100"),
    "even-grid-points": (
        ["--grid-points", "4096"],
        "error: grid requires an odd n_points for its half grid, got 4096",
    ),
}


class TestGridFlags:
    @pytest.mark.parametrize("flag", BAD_GRID_FLAGS)
    @pytest.mark.parametrize("command", [*GRID_FLAG_COMMANDS, *NO_GRID_COMMANDS])
    def test_bad_value_exits_2_before_evaluation(self, capsys, monkeypatch, command, flag):
        forbid_evaluation(monkeypatch)
        extra, message = BAD_GRID_FLAGS[flag]
        if command in NO_GRID_COMMANDS:
            with pytest.raises(SystemExit) as exc:
                main([*NO_GRID_COMMANDS[command], *extra])
            code, (out, err) = exc.value.code, capsys.readouterr()
            usage, *lines = err.splitlines()
            assert usage.startswith("usage: nonlinosc ")
            message = f"nonlinosc: error: unrecognized arguments: {' '.join(extra)}"
        else:
            code, out, err = run_cli(capsys, *GRID_FLAG_COMMANDS[command], *extra)
            lines = err.splitlines()
        assert code == 2
        assert out == ""
        assert lines == [message]

    def test_commands_without_a_grid_take_no_grid_flags(self, capsys, monkeypatch):
        forbid_evaluation(monkeypatch)
        for argv in (["scatter", "--tail", "1e-6"], ["curve", "--grid-points", "129"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


class TestSweep:
    def test_morse_alpha_sweep_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--potential", "morse:D=1,alpha=1", "--axis", "alpha",
            "--from", "0.2", "--to", "2.2", "--points", "6",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].split(",")[0] == "alpha"
        eta_b = [float(r.split(",")[1]) for r in lines[1:]]
        eta_ng = [float(r.split(",")[2]) for r in lines[1:]]
        assert all(a < b for a, b in zip(eta_b, eta_b[1:]))
        assert all(a < b for a, b in zip(eta_ng, eta_ng[1:]))

    def test_error_rows_and_partial_success(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--potential", "morse:D=1,alpha=1", "--axis", "alpha",
            "--from", "2.0", "--to", "3.2", "--points", "4",
        )
        assert code == 0  # at least one point succeeded
        lines = out.strip().split("\n")
        error_rows = [r for r in lines[1:] if r.split(",")[-1] != ""]
        ok_rows = [r for r in lines[1:] if r.split(",")[-1] == ""]
        assert error_rows and ok_rows
        assert "bound-state" in error_rows[-1]
        # reason column carries no commas, so the row still splits cleanly
        assert len(error_rows[-1].split(",")) == len(lines[0].split(","))

    def test_all_points_failing_exits_nonzero(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--potential", "morse:D=1,alpha=1", "--axis", "alpha",
            "--from", "2.9", "--to", "3.2", "--points", "2",
        )
        assert code != 0
        assert "every sweep point failed" in err

    def test_row_warnings_reach_stderr_after_their_row(self, capsys):
        # Morse alpha at 0.95 to 0.98 of its limit 2 sqrt(2): every row reports and warns.
        code, out, err = run_cli(
            capsys, "sweep", "--potential", "morse:D=1", "--axis", "alpha",
            "--from", "2.7", "--to", "2.76", "--points", "4",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(row["alpha"], row["error"]) for row in rows] == [
            ("2.7", ""), ("2.72", ""), ("2.74", ""), ("2.76", "")]
        expected = [f"warning: alpha={value:.12g}: {warning}"
                    for value in np.linspace(2.7, 2.76, 4)
                    for warning in measure_report(Morse(1.0, float(value))).diagnostics.warnings]
        assert err.splitlines() == expected
        assert [line.split(": ")[1] for line in expected] == [
            "alpha=2.7", "alpha=2.72", "alpha=2.74", "alpha=2.76"]
        assert expected[-1] == ("warning: alpha=2.76: det sigma - 1/4 = 9.84 moves by 0.0018 "
                                "on every other node; measures carry resolution error")

    def test_fellows_smith_eta_b_presence_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--potential", "fs:p=-0.5", "--axis", "p",
            "--from", "-0.9", "--to", "-0.02", "--points", "8",
        )
        assert code == 0
        p_plus = -0.5 + math.sqrt(2.0) / 4.0
        for row in out.strip().split("\n")[1:]:
            cells = row.split(",")
            p = float(cells[0])
            assert (cells[1] == "") == (p < p_plus)

    @pytest.mark.parametrize(
        "potential,axis,lo,hi,points",
        [("fs:p=-0.5", "p", "-0.97", "0", "7"), ("morse:D=1,alpha=1", "alpha", "2.0", "3.2", "4")],
    )
    def test_rows_match_measure_report(self, capsys, potential, axis, lo, hi, points):
        code, out, _ = run_cli(
            capsys, "sweep", "--potential", potential, "--axis", axis,
            "--from", lo, "--to", hi, "--points", points, "--format", "json",
        )
        assert code == 0
        base = parse_potential_spec(potential)
        values = np.linspace(float(lo), float(hi), int(points))
        for value, row in zip(values, json.loads(out)["rows"], strict=True):
            try:
                report = measure_report(with_parameter(base, axis, float(value)))
            except HANDLED_ERRORS as exc:
                assert row["error"] == f"{type(exc).__name__}: {exc}".replace(",", ";")
                continue
            assert row["error"] is None
            for column in ("eta_b", "eta_ng", "omega_r", "ground_energy", "det_sigma",
                           "fidelity_to_reference"):
                value = getattr(report, column)
                assert row[column] == (None if value is None else float(f"{value:.12g}"))

    def test_pert_omega_sweep_to_1e_300_gives_error_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--potential", "pert:omega=1", "--axis", "omega",
            "--from", "1e-300", "--to", "1", "--points", "4", "--log-spacing",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["error"].partition(":")[0] for row in rows] == ["SpecError", "SpecError", "", ""]
        assert "omega=1e-300" in rows[0]["error"]
        assert rows[-1]["eta_b"] == "0"

    def test_log_spacing(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--potential", "mio:a=1", "--axis", "a",
            "--from", "0.5", "--to", "8", "--points", "5", "--log-spacing",
        )
        assert code == 0
        values = [float(r.split(",")[0]) for r in out.strip().split("\n")[1:]]
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_range_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--potential", "mio:a=1", "--axis", "a",
            "--from", "2.0", "--to", "1.0", "--points", "5",
        )
        assert code != 0
        assert "strictly increasing" in err

    @pytest.mark.parametrize(
        "bounds",
        [["--from=-inf", "--to", "1"], ["--from", "1", "--to", "inf", "--log-spacing"],
         ["--from=-1e308", "--to", "1e308"]],
        ids=["infinite-start", "infinite-end-log", "overflowing-width"],
    )
    def test_non_finite_range_exits_2(self, capsys, bounds):
        code, out, err = run_cli(
            capsys, "sweep", "--potential", "harmonic:omega=1", "--axis", "omega",
            *bounds, "--points", "3",
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: sweep range must have finite ends and a finite width")

    def test_base_value_of_swept_axis_is_not_checked(self, capsys):
        # alpha=3 has no Morse bound state, but only the swept values are used.
        code, out, _ = run_cli(
            capsys, "sweep", "--potential", "morse:D=1,alpha=3", "--axis", "alpha",
            "--from", "0.5", "--to", "1", "--points", "3",
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3
        assert all(row.split(",")[-1] == "" for row in rows)

    @pytest.mark.parametrize(
        "keyless,keyed,axis",
        [("morse:D=1", "morse:D=1,alpha=1", "alpha"), ("mio:", "mio:a=1", "a")],
        ids=["morse-alpha", "mio-a"],
    )
    def test_swept_key_may_be_left_out(self, capsys, keyless, keyed, axis):
        runs = [
            run_cli(capsys, "sweep", "--potential", text, "--axis", axis,
                    "--from", "0.5", "--to", "1", "--points", "3")
            for text in (keyless, keyed)
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and len(runs[0][1].splitlines()) == 4

    def test_missing_key_that_is_not_swept_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--potential", "morse:alpha=1", "--axis", "alpha",
            "--from", "0.5", "--to", "1", "--points", "3",
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: potential 'morse' missing parameters: ['D']"]

    def test_axis_validation(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--potential", "mio:a=1", "--axis", "alpha",
            "--from", "0.5", "--to", "1.0", "--points", "3",
        )
        assert code == 2
        assert out == ""
        assert "sweep axis" in err or "no sweep axis" in err


class TestScatter:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "scatter", "--n", "3", "--seed", "9")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eps3,eps4,eta_b,eta_ng"
        assert len(lines) == 4

    def test_right_panel_spreads_wider(self, capsys):
        def max_spread(eps3_hi):
            _, out, _ = run_cli(
                capsys, "scatter", "--n", "400", "--seed", "3",
                f"--eps3=-{eps3_hi},{eps3_hi}", "--eps4=-0.25,0.25",
            )
            spread = 0.0
            for row in out.strip().split("\n")[1:]:
                _, _, eta_b, eta_ng = map(float, row.split(","))
                spread = max(spread, abs(eta_ng - parametric_curve(eta_b).corrected))
            return spread

        assert max_spread(0.2) > 2.0 * max_spread(0.1)

    @pytest.mark.parametrize("n,seed,eps3,eps4,omega", [
        (12, 5, (-0.5, 0.5), (-0.5, 0.5), 1.0),
        (6, 2, (-0.1, 0.1), (-0.25, 0.25), 1.3),
        (1, 0, (0.5, 0.5), (0.5, 0.5), 1.0),  # the two guard corners at omega = 1
        (1, 0, (-0.5, -0.5), (-0.5, -0.5), 1.0),
    ], ids=["guard-box", "omega-1.3", "corner-plus", "corner-minus"])
    def test_rows_are_measure_rows(self, capsys, n, seed, eps3, eps4, omega):
        code, out, _ = run_cli(capsys, "scatter", "--n", str(n), "--seed", str(seed),
                               f"--eps3={eps3[0]!r},{eps3[1]!r}",
                               f"--eps4={eps4[0]!r},{eps4[1]!r}", "--omega", repr(omega))
        assert code == 0
        rows = out.strip().split("\n")[1:]
        draws = scatter_sample(n, eps3, eps4, omega, seed)
        assert len(rows) == len(draws) == n
        for row, (e3, e4) in zip(rows, draws):
            code, measured, _ = run_cli(capsys, "measure", "--potential",
                                        f"pert:omega={omega!r},eps3={e3!r},eps4={e4!r}")
            assert code == 0
            eta_b, eta_ng = measured.strip().split("\n")[1].split(",")[:2]
            assert row.split(",") == [f"{e3:.12g}", f"{e4:.12g}", eta_b, eta_ng]

    def test_guard_violation_exits(self, capsys):
        code, _, err = run_cli(capsys, "scatter", "--n", "5", "--eps3=-0.9,0.9")
        assert code != 0
        assert "guard" in err


class TestCurve:
    def test_printed_empty_beyond_origin(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--points", "5", "--from", "0", "--to", "0.8")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eta_b,eta_ng_printed,eta_ng_corrected"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and first[2] == "0"
        for row in lines[2:]:
            cells = row.split(",")
            assert cells[1] == ""
            assert float(cells[2]) > 0.0

    @pytest.mark.parametrize("points", ["-1", "0", "1"])
    def test_fewer_than_two_points_exits_2(self, capsys, points):
        code, out, err = run_cli(capsys, "curve", "--points", points)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: curve needs at least 2 points, got {points}"]


# argv and the one stderr line of argument errors of each command.
ARGUMENT_ERRORS = {
    "sweep-one-point": (
        ["sweep", "--potential", "mio:a=1", "--axis", "a", "--from", "1", "--to", "2",
         "--points", "1"],
        "error: sweep needs at least 2 points, got 1",
    ),
    "sweep-log-from-zero": (
        ["sweep", "--potential", "mio:a=1", "--axis", "a", "--from", "0", "--to", "2",
         "--points", "3", "--log-spacing"],
        "error: log spacing requires a positive range start",
    ),
    "curve-past-one": (
        ["curve", "--from", "0.5", "--to", "1.2"],
        "error: curve range must satisfy 0 <= from < to < 1, got [0.5, 1.2]",
    ),
    "scatter-one-bound": (
        ["scatter", "--eps3", "0.1"],
        "error: eps3 range must be two numbers lo,hi, got '0.1'",
    ),
    "scatter-text-bounds": (
        ["scatter", "--eps3", "a,b"],
        "error: eps3 range must be two numbers lo,hi, got 'a,b'",
    ),
    "scatter-negative-count": (
        ["scatter", "--n", "-1"],
        "error: sample count must be >= 0, got -1",
    ),
}


@pytest.mark.parametrize("argv, line", ARGUMENT_ERRORS.values(), ids=ARGUMENT_ERRORS)
def test_argument_error_exits_2_with_its_line(capsys, argv, line):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [line]


class TestOracleCheck:
    def test_mpt_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--potential", "mpt:D=1,alpha=1")
        assert code == 0
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert abs(float(fields["e_diff"])) <= 1e-5
        assert float(fields["e_analytic"]) == pytest.approx(-0.5, abs=1e-12)
        assert float(fields["fidelity"]) >= 1.0 - 1e-6

    def test_mio_passes_at_zero_energy(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--potential", "mio:a=8")
        assert code == 0
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert abs(float(fields["e_fd"])) <= 1e-5

    def test_perturbed_has_no_analytic_state(self, capsys):
        code, out, err = run_cli(capsys, "oracle-check", "--potential", "pert:omega=1,eps3=0.1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: pert has a closed-form report and no sampled state to check"
        ]

    @pytest.mark.parametrize("omega", ["1e305", "1e308"])
    def test_overflowing_hamiltonian_is_one_error_line(self, omega):
        # T's spectrum, up to pi^2/(2 h^2), plus max |V| leaves the float range.
        done = run_fresh("oracle-check", "--potential", f"harmonic:omega={omega}")
        assert done.returncode == 2
        assert done.stdout == ""
        [line] = done.stderr.splitlines()
        assert line.startswith(
            "error: V(x) or the kinetic matrix overflows the float range on the grid "
        )

    def test_unresolved_reference_exits_2_as_measure_does(self, capsys):
        code, out, err = run_cli(capsys, "measure", "--potential", "mio:a=1e20")
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert "cannot resolve the reference Gaussian" in line
        code, out, err = run_cli(capsys, "oracle-check", "--potential", "mio:a=1e20")
        assert (code, out) == (2, "")
        assert err.splitlines() == [line]

    def test_analytic_warnings_precede_the_verdict(self, capsys):
        # The analytic side warns on the half-grid alarm; the DVR ladder then
        # fails to converge on the same extent.
        code, out, err = run_cli(capsys, "oracle-check", "--potential", "mio:a=3000")
        assert (code, out) == (2, "")
        warning, error = err.splitlines()
        assert warning == ("warning: det sigma - 1/4 = 3.99e-05 moves by 1e-11 on every other "
                           "node; measures carry resolution error")
        assert error.startswith("error: the DVR oracle has not converged at 1025 nodes")

    def test_fine_spacing_reports(self, capsys):
        # 1/(2 h^2) is about 1e152 here; the DVR never squares it.
        code, out, err = run_cli(capsys, "oracle-check", "--potential", "harmonic:omega=1e150")
        assert (code, err) == (0, "")
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["e_fd"]) == pytest.approx(5e149, rel=1e-12)

    def test_ground_state_lost_to_rounding_is_one_error_line(self, capsys):
        # V = x^2/2 + ... - 4e169: the float range keeps no x dependence of V,
        # so eps |H| is near the gap above E0.
        code, out, err = run_cli(capsys, "oracle-check", "--potential", "mio:a=1e-169")
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert line.startswith("error: the DVR ground state of ModifiedIsotonic(a=1e-169) "
                               "is lost to rounding: eps |H| = ")

    def test_large_energy_gap_reports(self, capsys):
        # E0 = -4e10 lies 5 below E1: a shift of 1e-9 |E0| below E0 would pass E1.
        code, out, err = run_cli(capsys, "oracle-check", "--potential", "mio:a=1e-10")
        assert (code, err) == (0, "")
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert abs(float(fields["e_diff"])) <= 1e-9 * 4e10
        assert 1.0 - float(fields["fidelity"]) <= 1e-8

    def test_energy_tolerance_is_relative(self, capsys, monkeypatch):
        # Off by 5e-8 at E = 500: past the floor's 1e-9 in absolute terms, within it relatively.
        monkeypatch.setattr(Harmonic, "energy", lambda self: 0.5 * self.omega * (1.0 + 1e-10))
        code, out, err = run_cli(capsys, "oracle-check", "--potential", "harmonic:omega=1000")
        assert code == 0
        assert err == ""
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert abs(float(fields["e_diff"])) > 1e-8

    def test_energy_off_by_relative_1e_3_is_a_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(Harmonic, "energy", lambda self: 0.5 * self.omega * (1.0 + 1e-3))
        code, out, err = run_cli(capsys, "oracle-check", "--potential", "harmonic:omega=1000")
        assert code == 1
        assert out.startswith("e_analytic,")
        [line] = err.splitlines()
        assert line.startswith("error: oracle mismatch for harmonic:omega=1000: |dE| = 0.5")

    def test_morse_adjudicates_energy_reading(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--potential", "morse:D=1,alpha=0.5")
        assert code == 0
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        n = math.sqrt(2.0) / 0.5 - 0.5
        assert float(fields["e_fd"]) == pytest.approx(-0.5 * 0.25 * n**2, abs=1e-4)
        assert abs(float(fields["e_fd"]) - (-0.5 * 0.5 * n**2)) > 0.5


class UnnamedError(HANDLED_ERRORS):
    """A package error whose class the CLI never names."""


class TestErrorBase:
    @pytest.mark.parametrize("error, builtin", [
        (SpecError, ValueError), (DomainError, ValueError), (ConvergenceError, RuntimeError),
        (GridError, RuntimeError), (NormalizationError, ValueError)])
    def test_each_error_keeps_its_builtin_base(self, error, builtin):
        assert issubclass(error, HANDLED_ERRORS) and issubclass(error, builtin)

    def test_unnamed_error_is_one_line_in_measure(self, capsys, monkeypatch):
        def fail(spec, **kwargs):
            raise UnnamedError("raised by the report")

        monkeypatch.setattr(cli, "measure_report", fail)
        code, out, err = run_cli(capsys, "measure", "--potential", "morse:D=1,alpha=1")
        assert (code, out, err) == (2, "", "error: raised by the report\n")

    def test_unnamed_error_is_an_error_row_in_sweep(self, capsys, monkeypatch):
        def fail_above_one(spec, **kwargs):
            if spec.alpha > 1.0:
                raise UnnamedError("raised by the report")
            return measure_report(spec, **kwargs)

        monkeypatch.setattr(cli, "measure_report", fail_above_one)
        code, out, err = run_cli(
            capsys, "sweep", "--potential", "morse:D=1", "--axis", "alpha",
            "--from", "0.5", "--to", "1.5", "--points", "2",
        )
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["error"] for row in rows] == ["", "UnnamedError: raised by the report"]


class TestDeterminism:
    def test_scatter_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = main(["scatter", "--n", "500", "--seed", "42", "--out", str(path)])
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sweep_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = main([
                "sweep", "--potential", "mpt:D=1,alpha=1", "--axis", "alpha",
                "--from", "0.3", "--to", "1.5", "--points", "6", "--out", str(path),
            ])
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_single_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "scatter", "--n", "4", "--seed", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "scatter"
        assert len(payload["rows"]) == 4


class TestProcessEntry:
    def test_main_in_process_leaves_the_collector_as_it_was(self, capsys):
        before = (gc.isenabled(), gc.get_freeze_count())
        code, _, _ = run_cli(capsys, "measure", "--potential", "mio:a=3")
        assert code == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_module_entry_prints_what_main_prints(self, capsys):
        argv = ["oracle-check", "--potential", "mpt:D=1,alpha=0.7", "--format", "json"]
        done = run_fresh(*argv)
        assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, *argv)

    def test_run_enables_the_collector_over_a_frozen_import_graph(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        script = (
            "import atexit, gc, os, sys\n"
            "from nonlinosc import cli\n"
            "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))\n"
            "sys.argv = ['nonlinosc', 'curve', '--points', '2', '--out', os.devnull]\n"
            "cli.run()\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "True True\n", "")


class TestFormatting:
    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "scatter", "--n", "2", "--seed", "4")
        value = out.strip().split("\n")[1].split(",")[0]
        mantissa = value.lstrip("-0.").replace(".", "").split("e")[0]
        assert len(mantissa) <= 12

    def test_grid_points_flag_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "--potential", "mpt:D=1,alpha=1",
            "--grid-points", "2049", "--format", "json",
        )
        assert code == 0
        coarse = json.loads(out)["eta_ng"]
        code, out, _ = run_cli(
            capsys, "measure", "--potential", "mpt:D=1,alpha=1", "--format", "json"
        )
        fine = json.loads(out)["eta_ng"]
        assert coarse == pytest.approx(fine, abs=1e-6)


FORMAT_PAIRS = {
    "measure-harmonic": ["measure", "--potential", "harmonic:omega=1.3"],
    "measure-fs": ["measure", "--potential", "fs:p=-0.6"],
    "sweep": ["sweep", "--potential", "morse:D=1,alpha=1", "--axis", "alpha",
              "--from", "2.0", "--to", "3.2", "--points", "4"],
    "scatter": ["scatter", "--n", "5", "--seed", "7"],
    "curve": ["curve", "--points", "5", "--to", "0.8"],
    "oracle-check": ["oracle-check", "--potential", "mpt:D=1,alpha=1"],
}
# These build no grid, so argparse rejects the grid flags themselves.
NO_GRID_COMMANDS = {
    "scatter": ["scatter", "--n", "5"],
    "curve": ["curve", "--points", "5"],
}


@pytest.mark.parametrize("command", FORMAT_PAIRS)
def test_csv_and_json_carry_the_same_values(capsys, command):
    code, out, _ = run_cli(capsys, *FORMAT_PAIRS[command])
    assert code == 0
    header, *csv_rows = csv.reader(io.StringIO(out))
    code, out, _ = run_cli(capsys, *FORMAT_PAIRS[command], "--format", "json")
    assert code == 0
    document = json.loads(out)
    if "rows" in document:
        json_rows = document["rows"]
    else:
        json_rows = [{k: v for k, v in document.items() if k not in ("potential", "warnings")}]
    for cells, row in zip(csv_rows, json_rows, strict=True):
        assert list(row) == header
        for cell, value in zip(cells, row.values(), strict=True):
            if value is None:
                assert cell == ""
            elif isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == value
    values = [value for row in json_rows for value in row.values()]
    if command in ("measure-fs", "curve"):
        assert None in values
    if command == "sweep":
        assert any(isinstance(value, str) for value in values)


_WITHOUT_SCIPY = """
import json, os, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from nonlinosc.cli import main
out = ["--out", os.devnull]
commands = [
    ["measure", "--potential", "fs:p=-0.6"],
    ["sweep", "--potential", "morse:D=1,alpha=1", "--axis", "alpha",
     "--from", "0.5", "--to", "2", "--points", "5"],
    ["scatter", "--n", "5"],
    ["curve", "--points", "5"],
    ["oracle-check", "--potential", "fs:p=-0.85"],
    ["oracle-check", "--potential", "morse:D=1,alpha=1"],
]
codes = [main(argv + out) for argv in commands]
loaded = [name for name, module in sys.modules.items()
          if name.split(".")[0] == "scipy" and module is not None]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_every_command_runs_without_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result == {"codes": [0] * 6, "loaded": []}
