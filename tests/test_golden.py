"""Golden CLI outputs: one file per command and per potential family,
compared byte for byte.

The files pin the output contract, so a refactor proves it keeps the same
results. After a deliberate change of output, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and account for every field that moved.
"""

import contextlib
import io
from pathlib import Path

import pytest

from nonlinosc.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "measure_harmonic.csv": ["measure", "--potential", "harmonic:omega=1.3"],
    "measure_morse.json": ["measure", "--potential", "morse:D=1,alpha=0.9", "--format", "json"],
    # Peak log amplitude above +300: the sampled amplitude is shifted by its peak.
    "measure_morse_deep.csv": ["measure", "--potential", "morse:D=20000,alpha=0.5"],
    "measure_mpt.csv": ["measure", "--potential", "mpt:D=2,alpha=1"],
    "measure_mio.json": ["measure", "--potential", "mio:a=3", "--format", "json"],
    # Near the Morse bound-state edge: the JSON warnings list is not empty.
    "measure_morse_edge.json": ["measure", "--potential", "morse:D=1,alpha=2.8",
                                "--format", "json"],
    "measure_fs.csv": ["measure", "--potential", "fs:p=-0.08"],
    "measure_pert.json": ["measure", "--potential", "pert:omega=1,eps3=0.05,eps4=0.1",
                          "--format", "json"],
    "sweep_harmonic.csv": ["sweep", "--potential", "harmonic:omega=1", "--axis", "omega",
                           "--from", "0.5", "--to", "2", "--points", "4"],
    "sweep_morse.csv": ["sweep", "--potential", "morse:D=1,alpha=1", "--axis", "alpha",
                        "--from", "0.2", "--to", "3.2", "--points", "6"],
    # The same sweep as JSON: its last row is an error row.
    "sweep_morse.json": ["sweep", "--potential", "morse:D=1,alpha=1", "--axis", "alpha",
                         "--from", "0.2", "--to", "3.2", "--points", "6", "--format", "json"],
    "sweep_mpt.json": ["sweep", "--potential", "mpt:D=2,alpha=1", "--axis", "alpha",
                       "--from", "0.25", "--to", "3", "--points", "5", "--format", "json"],
    # Low-a end of the MIO family, where the state nears the omega = 5 Gaussian.
    "sweep_mio.csv": ["sweep", "--potential", "mio:a=1", "--axis", "a", "--from", "0.01",
                      "--to", "0.05", "--points", "9", "--log-spacing"],
    # Crosses p- and p+: triple, double and single well.
    "sweep_fs.csv": ["sweep", "--potential", "fs:p=-0.5", "--axis", "p", "--from", "-0.99",
                     "--to", "0", "--points", "12"],
    "sweep_pert.csv": ["sweep", "--potential", "pert:omega=1,eps3=0.05", "--axis", "eps4",
                       "--from", "-0.2", "--to", "0.2", "--points", "5"],
    "scatter.csv": ["scatter", "--n", "20", "--seed", "7"],
    "scatter.json": ["scatter", "--n", "5", "--seed", "7", "--format", "json"],
    "curve.json": ["curve", "--points", "11", "--to", "0.9", "--format", "json"],
    # Every row past eta_b = 0 has an empty eta_ng_printed cell.
    "curve.csv": ["curve", "--points", "11", "--to", "0.9"],
    "oracle_harmonic.csv": ["oracle-check", "--potential", "harmonic:omega=0.7"],
    "oracle_morse.csv": ["oracle-check", "--potential", "morse:D=2,alpha=1.2"],
    "oracle_mpt.json": ["oracle-check", "--potential", "mpt:D=1,alpha=0.7", "--format", "json"],
    "oracle_mio.csv": ["oracle-check", "--potential", "mio:a=1"],
    "oracle_fs.csv": ["oracle-check", "--potential", "fs:p=-0.1"],
    "oracle_fs_triple.json": ["oracle-check", "--potential", "fs:p=-0.85", "--format", "json"],
}


def run(argv: list[str]) -> str:
    """Stdout of one CLI invocation; fails unless it exits with 0."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert run(CASES[name]).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN_DIR / name).write_bytes(run(argv).encode("utf-8"))
