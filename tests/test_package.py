import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import nonlinosc

_SRC = str(Path(nonlinosc.__file__).resolve().parents[1])


def test_export_list_matches_the_package():
    for name in nonlinosc.__all__:
        getattr(nonlinosc, name)
    public = {
        name
        for name, value in vars(nonlinosc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(nonlinosc.__all__) == public
    namespace: dict = {}
    exec("from nonlinosc import *", namespace)
    assert set(namespace) - {"__builtins__"} == public


def test_unknown_name_is_an_attribute_error():
    # Deleted names stay deleted.
    for name in ("eta_bures", "ground_state_amplitude", "fellows_smith_well_structure",
                 "WellRegion", "P_MINUS", "FockState", "fock_covariance", "TruncationError",
                 "ScatterRecord", "eta_ng_perturbative", "simpson_integral", "overlap",
                 "IncompatibleDomainError", "UnsupportedSpecError", "perturbed_variances",
                 "entropy_h", "evaluate_potential"):
        with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
            getattr(nonlinosc, name)


def _fresh(code: str, openblas_threads: str | None = None) -> str:
    """Run ``code`` in a new interpreter and return its stdout.

    The child's environment is built here: this process may already have
    imported the CLI, which sets OPENBLAS_NUM_THREADS in os.environ.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_package_import_loads_no_numpy():
    # dir() lists every export before any is accessed, and loads none of them.
    code = ("import sys, nonlinosc; listed = set(nonlinosc.__all__) <= set(dir(nonlinosc)); "
            "print('numpy' in sys.modules, listed)")
    assert _fresh(code) == "False True"


def test_console_script_imports_numpy_with_the_collector_off():
    # The installed script calls nonlinosc._main, so cli is never __main__ there.
    code = textwrap.dedent("""
        import gc, os, sys, nonlinosc
        seen = []
        sys.addaudithook(lambda event, args: event == "import" and args[0] == "numpy"
                         and seen.append(gc.isenabled()))
        sys.argv = ["nonlinosc", "curve", "--points", "2", "--out", os.devnull]
        try:
            nonlinosc._main()
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        print(seen)
    """)
    assert _fresh(code) == "[False]"


def test_cli_import_loads_numpy_and_no_test_extra():
    # Cold start is the floor of every command: the CLI needs numpy and
    # nothing from the test extras.
    code = ("import sys, nonlinosc.cli; "
            "print(*(name in sys.modules for name in ('numpy', 'scipy', 'mpmath', 'hypothesis')))")
    assert _fresh(code) == "True False False False"


def test_cli_runs_openblas_on_one_thread():
    code = ("import os, nonlinosc.cli; print(os.environ['OPENBLAS_NUM_THREADS']); "
            "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc') else '-')")
    value, threads = _fresh(code).split()
    assert value == "1"
    if threads != "-":
        assert threads == "1"


def test_cli_keeps_an_explicit_openblas_thread_count():
    code = "import os, nonlinosc.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(code, openblas_threads="2") == "2"
