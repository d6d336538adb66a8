#!/usr/bin/env python3
"""Regenerate the CSV data behind the standard plots.

Writes, under --outdir (default ./data):
  scatter_narrow.csv / scatter_wide.csv   randomized perturbative ensembles
                                           (eps3 in +-0.1 resp. +-0.2)
  curve.csv                                even-perturbation parametric curve
  morse_sweep_D{D}.csv                     both measures vs alpha
  mpt_sweep_D{D}.csv                       both measures vs alpha
  mio_sweep.csv                            both measures vs a (log axis)
  fs_sweep.csv                             both measures vs p

Exits nonzero if any command fails.
"""

import argparse
import math
import pathlib

from nonlinosc.cli import main as cli


def run(outdir: pathlib.Path, args: list[str], name: str) -> bool:
    """Run one CLI command into ``outdir/name``; True when it fails."""
    path = outdir / name
    code = cli(args + ["--out", str(path)])
    status = "ok" if code == 0 else f"exit {code}"
    print(f"  {name:24s} {status}")
    return code != 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="data")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--points", type=int, default=60)
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = str(args.seed)
    points = str(args.points)

    jobs = [
        (["scatter", "--n", "2000", "--seed", seed,
          "--eps3=-0.1,0.1", "--eps4=-0.25,0.25"], "scatter_narrow.csv"),
        (["scatter", "--n", "2000", "--seed", seed,
          "--eps3=-0.2,0.2", "--eps4=-0.25,0.25"], "scatter_wide.csv"),
        (["curve", "--from", "0", "--to", "0.55", "--points", "200"], "curve.csv"),
    ]
    for d in (0.25, 0.5, 1.0):
        upper = 0.97 * 2.0 * math.sqrt(2.0 * d)
        jobs.append((["sweep", "--potential", f"morse:D={d},alpha=1",
                      "--axis", "alpha", "--from", str(0.02 * upper), "--to", str(upper),
                      "--points", points], f"morse_sweep_D{d}.csv"))
    for d in (1.0, 2.0, 3.0):
        jobs.append((["sweep", "--potential", f"mpt:D={d},alpha=1",
                      "--axis", "alpha", "--from", "0.25", "--to", "3.0",
                      "--points", points], f"mpt_sweep_D{d}.csv"))
    jobs.append((["sweep", "--potential", "mio:a=1", "--axis", "a",
                  "--from", "0.2", "--to", "50", "--points", points, "--log-spacing"],
                 "mio_sweep.csv"))
    jobs.append((["sweep", "--potential", "fs:p=-0.5", "--axis", "p",
                  "--from", "-0.98", "--to", "0", "--points", points], "fs_sweep.csv"))

    print(f"writing CSVs to {outdir}/")
    failures = sum(run(outdir, job, name) for job, name in jobs)
    if failures:
        print(f"{failures} command(s) failed")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
