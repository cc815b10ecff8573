"""Radar-aided identification of the communication user among detected objects."""

import os

# One BLAS thread unless the user chose otherwise: a multi-threaded BLAS
# splits the DNN's large matmuls differently and changes its checkpoints.
# This must run before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from isac_ident.radar_detect import Candidate, DetectConfig, detect_objects
from isac_ident.radar_frontend import RadarConfig, RadarCube, synthesize_frame
from isac_ident.scene import CommConfig, Codebook, SceneObject, dft_codebook
from isac_ident.solvers import SOLVER_NAMES, Sample, evaluate, make_solver

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "Codebook",
    "CommConfig",
    "DetectConfig",
    "RadarConfig",
    "RadarCube",
    "SOLVER_NAMES",
    "Sample",
    "SceneObject",
    "detect_objects",
    "dft_codebook",
    "evaluate",
    "make_solver",
    "synthesize_frame",
    "__version__",
]
