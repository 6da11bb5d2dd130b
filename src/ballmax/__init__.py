"""ballmax: a desk-scale numerical laboratory for the partially centered
maximal operator on radial nonincreasing step profiles.

The operator averages over closed balls whose lam-shrunk copy contains the
evaluation point (lam = 0: centered balls, lam = 1: all balls containing the
point).  On radial nonincreasing profiles its weak-(1,1) constant is
(1 + lam)^d; the analysis module estimates that constant from exact ball
averages and the verify module audits every supporting geometric fact with
independent oracles.
"""

from . import analysis, geometry, maximal, profiles, verify
from .geometry import *
from .profiles import *
from .maximal import *
from .analysis import *
from .verify import *

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = [
    name for module in (geometry, profiles, maximal, analysis, verify) for name in module.__all__
]
