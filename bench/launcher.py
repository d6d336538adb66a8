"""Run one CLI command with spans recorded around the package's functions.

Usage: python bench/launcher.py <nonlinosc cli arguments>

The launcher imports ``nonlinosc.cli``, replaces every function named in
``WRAPPED`` in each ``nonlinosc`` module namespace that holds it with a
wrapper that records a span, swaps the CLI's thread pool for one that
records the pool's lifetime and which span submitted each task, and then
calls ``cli.main(argv)``. Spans stay in memory and are written to stderr
as one line, prefixed with ``SPAN_MARKER``, when main returns.

A span is ``[id, parent, cause, name, start_ns, end_ns, thread, size,
extra]``. ``parent`` is the enclosing span on the same thread (0 at a
thread's root), so self time is exact per thread; ``cause`` is the span
that submitted a pool task, for spans that start a worker's stack.
``size`` is the array length the call worked on and ``extra`` a count
taken from the result (inverse iterations, scatter rows).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

SPAN_MARKER = "BENCH-SPANS "

WRAPPED = {
    "specfun": ("kummer_phi_log_grid", "kummer_phi"),
    "potentials": ("ground_state_log_amplitude", "evaluate_potential"),
    "numerics": ("auto_grid", "sample_ground_state", "covariance_of", "overlap",
                 "normalize", "simpson_integral"),
    "measures": ("measure_report",),
    "oracle": ("fd_ground_state",),
    "perturbation": ("scatter_sample", "parametric_curve"),
    "cli": ("main",),
}
POOL_SPAN = "cli.sweep_pool"

_EXTRA = {
    "oracle.fd_ground_state": lambda result: result.iterations,
    "perturbation.scatter_sample": len,
}

_spans: list[list] = []
_ids = itertools.count(1)
_local = threading.local()


def _stack() -> list[int]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _size(args) -> int:
    """Length of the first array, grid or sampled state among the arguments."""
    for arg in args:
        size = getattr(arg, "size", None)
        if isinstance(size, int) and hasattr(arg, "shape"):
            return size
        grid = getattr(arg, "grid", arg)
        if isinstance(getattr(grid, "n_points", None), int):
            return grid.n_points
    return 0


def _open() -> tuple[int, int, int]:
    stack = _stack()
    parent = stack[-1] if stack else 0
    cause = 0 if stack else getattr(_local, "cause", 0)
    span_id = next(_ids)
    stack.append(span_id)
    return span_id, parent, cause


def _close(span_id, parent, cause, name, start, size, extra=0) -> None:
    end = time.perf_counter_ns()
    _stack().pop()
    _spans.append([span_id, parent, cause, name, start, end, threading.get_ident(),
                   size, extra])


def _wrap(name: str, fn):
    extract = _EXTRA.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ids = _open()
        start = time.perf_counter_ns()
        extra = 0
        try:
            result = fn(*args, **kwargs)
            if extract is not None:
                extra = extract(result)
            return result
        finally:
            _close(*ids, name, start, _size(args), extra)

    return wrapper


def _traced_pool(base):
    class TracedPool(base):
        """The CLI's executor, with its lifetime recorded as a span and each
        task tagged with the span that submitted it."""

        def __enter__(self):
            self._span = _open()
            self._start = time.perf_counter_ns()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                _close(*self._span, POOL_SPAN, self._start, 0)

        def submit(self, fn, /, *args, **kwargs):
            cause = _stack()[-1] if _stack() else 0

            def task(*a, **k):
                _local.cause = cause
                return fn(*a, **k)

            return super().submit(task, *args, **kwargs)

    return TracedPool


def instrument() -> None:
    """Swap the traced wrappers into every nonlinosc namespace."""
    import nonlinosc.cli  # noqa: F401  (imports every module of the package)

    modules = [m for n, m in list(sys.modules.items())
               if n == "nonlinosc" or n.startswith("nonlinosc.")]
    for module_name, names in WRAPPED.items():
        module = sys.modules[f"nonlinosc.{module_name}"]
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                print(f"launcher: nonlinosc.{module_name}.{name} not found; not traced",
                      file=sys.stderr)
                continue
            wrapper = _wrap(f"{module_name}.{name}", original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
    cli = sys.modules["nonlinosc.cli"]
    if hasattr(cli, "ThreadPoolExecutor"):
        cli.ThreadPoolExecutor = _traced_pool(cli.ThreadPoolExecutor)


def main(argv: list[str]) -> int:
    instrument()
    cli = sys.modules["nonlinosc.cli"]
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(SPAN_MARKER + json.dumps(_spans, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
