import os

# The CLI runs OpenBLAS on one thread, and the oracle's eigh rounds differently
# on more; set it before any test module imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import hypothesis

hypothesis.settings.register_profile(
    "numerics", deadline=None, max_examples=100, derandomize=True
)
hypothesis.settings.load_profile("numerics")
