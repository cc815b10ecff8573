"""Radar-aided identification of the communication user among detected objects."""

import os
import sys

# One BLAS thread unless the user chose otherwise: a multi-threaded BLAS
# splits the DNN's large matmuls differently and changes its checkpoints.
# BLAS reads the variables when numpy loads, so a later default would be
# recorded without taking effect.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    for _var in _BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")
# The values that governed BLAS when numpy loaded; None is the library default.
BLAS_THREADS = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}

import numpy  # noqa: E402,F401  loads BLAS now, under the pin above

__version__ = "0.1.0"
