"""Golden CLI outputs: one file per command and per potential family,
compared byte for byte.

The files pin the output contract, so a refactor proves it keeps the same
results. After a deliberate change of output, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files whose output changed and prints every CSV
cell or JSON field that moved as old -> new; account for each of them.
"""

import contextlib
import csv
import io
import itertools
import json
from pathlib import Path

import pytest

from nonlinosc.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "measure_harmonic.csv": ["measure", "--potential", "harmonic:omega=1.3"],
    "measure_morse.json": ["measure", "--potential", "morse:D=1,alpha=0.9", "--format", "json"],
    # A deep well, N = 400: its printed prefactor had a log above +300.
    "measure_morse_deep.csv": ["measure", "--potential", "morse:D=20000,alpha=0.5"],
    "measure_mpt.csv": ["measure", "--potential", "mpt:D=2,alpha=1"],
    "measure_mio.json": ["measure", "--potential", "mio:a=3", "--format", "json"],
    # Near the Morse bound-state edge: the state is 1,370 wide with a peak
    # 1/alpha = 0.36 wide, so it needs 16,385 points; its JSON warnings list
    # is not empty.
    "measure_morse_edge.json": ["measure", "--potential", "morse:D=1,alpha=2.8",
                                "--grid-points", "16385", "--format", "json"],
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


def test_moved_fields_names_each_changed_value():
    old_csv = "p,eta_ng,error\n-0.5,0.1,\n0,0.2,\n"
    new_csv = "p,eta_ng,error\n-0.5,0.1,\n0,0.3,\n1,0.4,\n"
    assert moved_fields("x.csv", old_csv, new_csv) == [
        "row 2:eta_ng: 0.2 -> 0.3",
        "row 3:p: None -> 1",
        "row 3:eta_ng: None -> 0.4",
        "row 3:error: None -> ",
    ]
    old_json = '{"rows": [{"eta_b": 0.1, "error": null}], "axis": "p"}'
    new_json = '{"rows": [{"eta_b": 0.2, "error": null}], "axis": "p", "n": 1}'
    assert moved_fields("x.json", old_json, new_json) == [
        ".rows[0].eta_b: 0.1 -> 0.2",
        ".n: None -> 1",
    ]
    assert moved_fields("x.csv", old_csv, old_csv) == []


def _json_moves(old, new, path: str):
    """(path, old, new) for every JSON leaf that differs; a missing side is None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            yield from _json_moves(old.get(key), new.get(key), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i, (o, n) in enumerate(itertools.zip_longest(old, new)):
            yield from _json_moves(o, n, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def _csv_moves(old: str, new: str):
    """(row:column, old, new) for every CSV cell that differs, named by the
    new header; a missing cell is None."""
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    header = new_rows[0] if new_rows else []
    for r, (o_row, n_row) in enumerate(itertools.zip_longest(old_rows, new_rows, fillvalue=[])):
        for c, (o, n) in enumerate(itertools.zip_longest(o_row, n_row)):
            if o != n:
                column = header[c] if r > 0 and c < len(header) else c
                yield f"row {r}:{column}", o, n


def moved_fields(name: str, old: str, new: str) -> list[str]:
    """One 'field: old -> new' line per value that differs between two outputs."""
    if name.endswith(".json"):
        moves = _json_moves(json.loads(old), json.loads(new), "")
    else:
        moves = _csv_moves(old, new)
    return [f"{where}: {o} -> {n}" for where, o, n in moves]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        path = GOLDEN_DIR / name
        new = run(argv)
        old = path.read_bytes().decode("utf-8") if path.exists() else None
        if old == new:
            continue
        if old is None:
            print(f"{name}: new file")
        else:
            print(f"{name}:")
            for line in moved_fields(name, old, new) or ["bytes differ outside any field"]:
                print(f"  {line}")
        path.write_bytes(new.encode("utf-8"))
