"""Per-layer metrics from launcher spans and from ``python -X importtime``.

Self time is a span's duration minus the durations of its children on the
same thread; the launcher records parents per thread and times in integer
nanoseconds, so self times are exact and a negative one is a recording
error. Thread-summed busy time is reported beside wall time, never in its
place.
"""

from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

from launcher import WRAPPED
from workloads import Command

REPORT = "measures.measure_report"
KUMMER_GRID = "specfun.kummer_phi_log_grid"
LOG_AMPLITUDE = "potentials.ground_state_log_amplitude"
AUTO_GRID = "numerics.auto_grid"


def tail(values: list[float]) -> float:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond
    it; the median when there are too few samples for any of them."""
    for q in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - q) / 100.0 >= 10.0:
            return float(np.percentile(values, q))
    return statistics.median(values) if values else 0.0


def _under(span: list, name: str, by_id: dict[int, list]) -> bool:
    parent = span[1]
    while parent:
        ancestor = by_id[parent]
        if ancestor[3] == name:
            return True
        parent = ancestor[1]
    return False


def pass_metrics(traced: list[tuple[Command, list[list]]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's commands."""
    calls, self_ns, total_ns, points, extra = (Counter() for _ in range(5))
    report_ms: list[float] = []
    kummer_in_reports = probes = 0
    sweep_wall_ns = sweep_busy_ns = threads = 0
    for command, spans in traced:
        by_id = {span[0]: span for span in spans}
        child_ns = Counter()
        for span in spans:
            if span[1]:
                child_ns[span[1]] += span[5] - span[4]
        for span in spans:
            span_id, parent, _, name, start, end, _, size, count = span
            own = end - start - child_ns[span_id]
            if own < 0:
                raise ValueError(f"negative self time {own} ns for {name} in {command.argv}")
            calls[name] += 1
            self_ns[name] += own
            total_ns[name] += end - start
            points[name] += size
            extra[name] += count
            if name == REPORT:
                report_ms.append((end - start) / 1e6)
            elif name == KUMMER_GRID and _under(span, REPORT, by_id):
                kummer_in_reports += 1
            elif name == LOG_AMPLITUDE and parent and by_id[parent][3] == AUTO_GRID:
                probes += 1
        if command.kind == "sweep":
            reports = [s for s in spans if s[3] == REPORT]
            sweep_busy_ns += sum(s[5] - s[4] for s in reports)
            sweep_wall_ns += sum(s[5] - s[4] for s in spans if s[3] == "cli.main")
            threads = max(threads, len({s[6] for s in reports}))

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        f"{KUMMER_GRID}.calls": calls[KUMMER_GRID],
        f"{KUMMER_GRID}.self_s": self_ns[KUMMER_GRID] / 1e9,
        f"{KUMMER_GRID}.points": points[KUMMER_GRID],
        f"{KUMMER_GRID}.calls_per_report": ratio(kummer_in_reports, calls[REPORT]),
        "numerics.auto_grid.probes_per_grid": ratio(probes, calls[AUTO_GRID]),
        f"{REPORT}.p50_ms": statistics.median(report_ms) if report_ms else 0.0,
        f"{REPORT}.tail_ms": tail(report_ms),
        "cli.sweep.threads": threads,
        "cli.sweep.wall_s": sweep_wall_ns / 1e9,
        "cli.sweep.busy_s": sweep_busy_ns / 1e9,
        "cli.sweep.overlap": ratio(sweep_busy_ns, sweep_wall_ns),
        "oracle.inverse_iterations": extra["oracle.fd_ground_state"],
        "perturbation.scatter_sample.rows": extra["perturbation.scatter_sample"],
    }
    for name in (f"{module}.{fn}" for module, fns in WRAPPED.items() for fn in fns):
        metrics.setdefault(f"{name}.calls", calls[name])
        metrics.setdefault(f"{name}.self_s", self_ns[name] / 1e9)
        metrics.setdefault(f"{name}.points", points[name])
        metrics.setdefault(f"{name}.s", total_ns[name] / 1e9)
    return metrics


def import_times(stderr: str) -> dict[str, float]:
    """Import metrics from ``python -X importtime -c 'import nonlinosc.cli'``.

    The cold import is the cumulative time of the outermost nonlinosc
    entries; a module that is not imported at all reads 0.
    """
    total = own = 0
    first: dict[str, int] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, label = line[len("import time:"):].split("|")
        name = label.strip()
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        if name == "nonlinosc" or name.startswith("nonlinosc."):
            own += int(self_us)
            if depth == 0:
                total += int(cumulative_us)
        first.setdefault(name, int(cumulative_us))
    return {
        "import.nonlinosc_cli_s": total / 1e6,
        "import.scipy_linalg_s": first.get("scipy.linalg", 0) / 1e6,
        "import.numpy_s": first.get("numpy", 0) / 1e6,
        "import.nonlinosc_self_s": own / 1e6,
    }
