"""Cold-process benchmark of the nonlinosc CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload fs_sweep --seed 1 --seconds 20 --trace 0

Builds the workload's command list from the seed, runs each command as a
fresh ``python -m nonlinosc.cli`` process, one after another, and repeats
the whole list until ``--seconds`` have passed (at least twice, so the
byte-identity check has two outputs to compare). Every output is checked
against the north-star invariants. With ``--trace 0`` the last line of
stdout holds the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics, from passes through
``bench/launcher.py`` alternating with untraced passes. The line before it
records provenance and the raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import workloads
from launcher import SPAN_MARKER

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 120
# The accuracy metrics revisit every STEP-th requested row of each command
# (the ones that succeeded). Fixed positions along each sweep keep the
# medians steady from seed to seed, where a randomly placed subset of a
# steep error curve did not.
ACCURACY_STEP = {"fs_sweep": 5, "closed_sweeps": 50, "cold_cli": 1}


@dataclass
class Run:
    """One finished child process."""

    returncode: int
    stdout: bytes
    stderr: str
    wall_s: float
    cpu_s: float


def execute(argv: list[str]) -> Run:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=COMMAND_TIMEOUT_S,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Run(proc.returncode, proc.stdout, proc.stderr.decode(errors="replace"), wall, cpu)


def cold_imports(extra: tuple[str, ...] = ()) -> list[Run]:
    runs = [execute([sys.executable, *extra, "-c", "import nonlinosc.cli"])
            for _ in range(SETUP_REPEATS)]
    for run in runs:
        if run.returncode != 0:
            raise RuntimeError(f"cold import failed: {run.stderr.strip()}")
    return runs


@dataclass
class Pass:
    """The workload's command list run once, and what its outputs were worth."""

    runs: list[Run]
    wall_s: float
    outcomes: list[checks.Outcome]

    @property
    def digest(self) -> str:
        return hashlib.sha256(b"".join(hashlib.sha256(r.stdout).digest()
                                       for r in self.runs)).hexdigest()

    @property
    def succeeded(self) -> int:
        return sum(o.succeeded for o in self.outcomes)

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed_commands(self) -> int:
        return sum(bool(o.violations) for o in self.outcomes)


def run_pass(prefix: list[str], commands: list[workloads.Command]) -> Pass:
    start = time.perf_counter()
    runs = [execute([*prefix, *c.argv]) for c in commands]
    wall = time.perf_counter() - start
    outcomes = [checks.check(c, r.returncode, r.stdout.decode()) for c, r in zip(commands, runs)]
    return Pass(runs, wall, outcomes)


def repeat(seconds: float, make_passes) -> list[Pass]:
    """Run passes until the time is up, with at least two passes in all."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        passes.extend(make_passes())
    return passes


def spans_of(run: Run) -> list[list]:
    for line in reversed(run.stderr.splitlines()):
        if line.startswith(SPAN_MARKER):
            return json.loads(line[len(SPAN_MARKER):])
    raise RuntimeError(f"traced command wrote no spans: {run.stderr[-500:]}")


def accuracy(workload: str, first: Pass) -> tuple[list[float], list[float]]:
    """Accuracy of the printed grid results at every STEP-th row."""
    step = ACCURACY_STEP[workload]
    return checks.accuracy([e for o in first.outcomes for e in o.evaluations
                            if e.index % step == 0])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def timed(args, commands) -> tuple[dict, list[Pass], dict]:
    setup = cold_imports()
    cli = [sys.executable, "-m", "nonlinosc.cli"]
    passes = repeat(args.seconds, lambda: [run_pass(cli, commands)])
    refine, reference = accuracy(args.workload, passes[0])
    metrics = {
        "wall_s": median([p.wall_s for p in passes]),
        "cpu_s": median([sum(r.cpu_s for r in p.runs) for p in passes]),
        "points_per_s": median([p.succeeded / p.wall_s for p in passes]),
        "cmd_p50_s": median([r.wall_s for p in passes for r in p.runs]),
        "setup_s": median([r.wall_s for r in setup]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ok_frac": passes[0].succeeded / passes[0].attempted,
        "eta_refine_delta": median(refine),
        "eta_ng_abs_err": median(reference),
    }
    samples = {"setup_s": [r.wall_s for r in setup], "pass_wall_s": [p.wall_s for p in passes],
               "pass_cpu_s": [sum(r.cpu_s for r in p.runs) for p in passes],
               "eta_refine_delta": refine, "eta_ng_abs_err": reference}
    return metrics, passes, samples


def traced(args, commands) -> tuple[dict, list[Pass], dict]:
    imports = [layers.import_times(r.stderr) for r in cold_imports(("-X", "importtime"))]
    cli = [sys.executable, "-m", "nonlinosc.cli"]
    launcher = [sys.executable, str(ROOT / "bench" / "launcher.py")]
    passes = repeat(args.seconds, lambda: [run_pass(cli, commands), run_pass(launcher, commands)])
    plain, traced_passes = passes[0::2], passes[1::2]
    per_pass = []
    for p in traced_passes:
        metrics = layers.pass_metrics([(c, spans_of(r)) for c, r in zip(commands, p.runs)])
        metrics["cli.bytes_out"] = sum(len(r.stdout) for r in p.runs)
        metrics["cli.sweep.error_rows"] = sum(o.attempted - o.succeeded for o, c
                                              in zip(p.outcomes, commands) if c.kind == "sweep")
        per_pass.append(metrics)
    metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
    for name in imports[0]:
        metrics[name] = median([i[name] for i in imports])
    metrics["trace.overhead_frac"] = (median([p.wall_s for p in traced_passes])
                                      / median([p.wall_s for p in plain]) - 1.0)
    refine, reference = accuracy(args.workload, passes[0])
    metrics["measures.eta_refine_delta_max"] = max(refine, default=0.0)
    metrics["measures.eta_ng_abs_err_max"] = max(reference, default=0.0)
    samples = {"plain_wall_s": [p.wall_s for p in plain],
               "traced_wall_s": [p.wall_s for p in traced_passes]}
    return metrics, passes, samples


def provenance(args) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "nonlinosc" / "cli.py").is_file():
        print(f"bench: no nonlinosc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    commands = workloads.commands(args.workload, args.seed)
    metrics, passes, samples = (traced if args.trace else timed)(args, commands)

    digests = {p.digest for p in passes}
    violations = [f"{c.argv}: {v}" for p in passes for c, o in zip(commands, p.outcomes)
                  for v in o.violations]
    if len(digests) > 1:
        violations.append(f"outputs differ between passes of one seed: {sorted(digests)}")
    record = {"provenance": provenance(args), "stdout_sha256": passes[0].digest,
              "passes": len(passes), "samples": samples, "violations": violations[:20]}
    result = {
        "correct": not violations,
        "attempted": sum(len(p.runs) for p in passes),
        "failed": sum(p.failed_commands for p in passes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
