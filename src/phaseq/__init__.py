"""Symbolic and numerical phase-space quantum mechanics toolkit.

Exact rational polynomial algebra over the phase-space variables
q0..q3, p0..p3, the Moyal star product (a Bopp shift is left star
multiplication, so operators are handled as their symbols),
symmetry-algebra and Casimir verification, gamma-matrix machinery,
FFT-grid numerics with a numerical star product and Wigner functions,
the relativistic magnetic bound-state (Landau) problem, and the
confluent hypergeometric special functions it needs.
"""

__version__ = "1.0.0"

# each module's __all__ is the one list of its public names
from .algebra import *
from .confluent import *
from .dirac import *
from .grids import *
from .landau import *
from .parsing import *
from .poincare import *
from .star import *

__all__ = [name for name in dir() if not name.startswith("_")]
