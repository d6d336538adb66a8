"""Seeded command lists for the benchmark workloads.

Each generator turns a seed into the argument lists that follow
``python -m nonlinosc.cli``. Point counts and command counts are fixed, so
every seed asks for the same amount of work; the seed only moves parameter
values, sweep starts and the scatter seed. Numbers are written with
``repr`` so the CLI parses back exactly the float that was drawn, and
sweep axis values are recomputed here the way the CLI computes them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

# Single-well boundary of the Fellows-Smith family, p+ = -1/2 + sqrt(2)/4.
P_PLUS = -0.5 + math.sqrt(2.0) / 4.0

FS_POINTS = 120
CLOSED_POINTS = 1000
SCATTER_N = 2000
CURVE_POINTS = 200


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the checker needs to know about it."""

    argv: tuple[str, ...]
    potential: str | None = None
    axis: str | None = None
    values: tuple[float, ...] = ()
    rows: int = 1

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return "json" if "--format=json" in self.argv else "csv"


def _num(value: float) -> str:
    return repr(float(value))


def _sweep(potential: str, axis: str, lo: float, hi: float, points: int,
           log: bool = False) -> Command:
    argv = ["sweep", f"--potential={potential}", f"--axis={axis}",
            f"--from={_num(lo)}", f"--to={_num(hi)}", f"--points={points}"]
    if log:
        argv.append("--log-spacing")
    values = np.geomspace(lo, hi, points) if log else np.linspace(lo, hi, points)
    return Command(tuple(argv), potential, axis, tuple(float(v) for v in values), points)


def _single(kind: str, potential: str, fmt: str = "csv") -> Command:
    return Command((kind, f"--potential={potential}", f"--format={fmt}"), potential)


# cold_cli's accuracy metrics rest on its 14 grid evaluations, so the seed
# moves each of those specs by at most 1% around a fixed anchor: every seed
# gets its own inputs and outputs, and the per-seed accuracy medians stay
# steady. The perturbative, scatter and curve inputs take wide seeded ranges.
JITTER = 0.01
COLD_SPECS = (
    ("measure", "harmonic", {"omega": 1.3}, "csv"),
    ("measure", "morse", {"D": 1.0, "alpha": 0.9}, "json"),
    ("measure", "mpt", {"D": 2.0, "alpha": 1.0}, "csv"),
    ("measure", "mio", {"a": 3.0}, "json"),
    ("measure", "fs", {"p": -0.08}, "csv"),  # single well
    ("measure", "fs", {"p": -0.6}, "json"),  # double well: eta_b blank
    ("oracle-check", "harmonic", {"omega": 0.7}, "csv"),
    ("oracle-check", "morse", {"D": 0.5, "alpha": 0.4}, "csv"),
    ("oracle-check", "morse", {"D": 2.0, "alpha": 1.2}, "json"),
    ("oracle-check", "mpt", {"D": 1.0, "alpha": 0.7}, "csv"),
    ("oracle-check", "mpt", {"D": 3.0, "alpha": 1.3}, "json"),
    ("oracle-check", "mio", {"a": 1.0}, "csv"),
    ("oracle-check", "fs", {"p": -0.1}, "csv"),
    ("oracle-check", "fs", {"p": -0.85}, "json"),  # triple well
)


def _jittered(rng: random.Random, family: str, anchors: dict[str, float]) -> str:
    params = ",".join(f"{k}={_num(v * (1.0 + rng.uniform(-JITTER, JITTER)))}"
                      for k, v in anchors.items())
    return f"{family}:{params}"


def fs_sweep(rng: random.Random) -> list[Command]:
    """Fellows-Smith p sweep through the triple-, double- and single-well
    regions: the Kummer-grid workload."""
    return [_sweep("fs:p=-0.5", "p", rng.uniform(-0.99, -0.95), 0.0, FS_POINTS)]


def closed_sweeps(rng: random.Random) -> list[Command]:
    """Morse, MPT and MIO sweeps: closed-form amplitudes, no Kummer grid.

    Both alpha ranges scale with sqrt(D), so every seed sweeps the same
    range of the state's shape (N for Morse, s for MPT) and the accuracy
    medians do not jump with the seeded depth. At D = 2 the MPT range is
    alpha in [0.25, 3].
    """
    depth = rng.choice((0.25, 0.5, 1.0))
    limit = 2.0 * math.sqrt(2.0 * depth)
    mpt_depth = rng.choice((1.0, 2.0, 3.0))
    mpt_scale = math.sqrt(mpt_depth / 2.0)
    return [
        _sweep(f"morse:D={_num(depth)},alpha={_num(0.5 * limit)}", "alpha",
               0.02 * limit, 0.97 * limit, CLOSED_POINTS),
        _sweep(f"mpt:D={_num(mpt_depth)},alpha=1.0", "alpha",
               0.25 * mpt_scale, 3.0 * mpt_scale, CLOSED_POINTS),
        # The low-a end keeps the known MIO underflow rows on purpose.
        _sweep("mio:a=1.0", "a", 0.01, 100.0, CLOSED_POINTS, log=True),
    ]


def cold_cli(rng: random.Random) -> list[Command]:
    """Twenty short commands, each paying the cold import."""
    commands = [_single(kind, _jittered(rng, family, anchors), fmt)
                for kind, family, anchors, fmt in COLD_SPECS]
    for _ in range(2):
        pert = (f"pert:omega={_num(rng.uniform(0.8, 1.25))},"
                f"eps3={_num(rng.uniform(-0.1, 0.1))},eps4={_num(rng.uniform(-0.2, 0.2))}")
        commands.append(_single("measure", pert, "json"))
    scatter_seed = str(rng.randrange(2**31))
    scatters = [
        Command(("scatter", f"--n={SCATTER_N}", f"--seed={scatter_seed}", f"--eps3={eps3}",
                 "--eps4=-0.25,0.25", "--format=csv"), rows=SCATTER_N)
        for eps3 in ("-0.1,0.1", "-0.2,0.2")
    ]
    curves = [
        Command(("curve", "--from=0", f"--to={_num(rng.uniform(lo, hi))}",
                 f"--points={CURVE_POINTS}", f"--format={fmt}"), rows=CURVE_POINTS)
        for lo, hi, fmt in ((0.5, 0.6, "csv"), (0.8, 0.95, "json"))
    ]
    return commands + scatters + curves


WORKLOADS = {
    "fs_sweep": fs_sweep,
    "closed_sweeps": closed_sweeps,
    "cold_cli": cold_cli,
}


def commands(workload: str, seed: int) -> list[Command]:
    """The command list of a workload for a seed; the same seed gives the
    same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
