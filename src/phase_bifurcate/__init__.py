"""Steady states and bifurcation diagrams of 1-D phase-field models.

Compact fourth-order finite-difference discretizations of three scalar
models on [-1, 1] with zero-flux boundaries (Allen-Cahn, the spatially reduced
steady Cahn-Hilliard, and a nonlocal Ohta-Kawasaki variant), plus the
numerical machinery to map out their solution structure: O(N) band and
band-plus-border LU (and a blocked dense LU) with determinant-sign
tracking, predictor-corrector continuation in a model parameter,
determinant-sign bifurcation detection on the constant branches with null
modes read off the same factorizations, branch switching along those null
modes, and closed-form crossing values to verify everything against.
"""

from . import linalg, models, analysis, continuation
from .linalg import *
from .models import *
from .analysis import *
from .continuation import *

__version__ = "0.1.0"

__all__ = [*linalg.__all__, *models.__all__, *analysis.__all__, *continuation.__all__, "__version__"]
