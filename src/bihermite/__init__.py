"""bihermite: exact-arithmetic complex Hermite polynomials, matrix-deformed
biorthogonal families, their level representation matrices, and a
normal-ordered two-boson operator algebra with noncommutative
quantum-mechanics verification suites."""

from .coeffs import *
from .deform import *
from .hermite import *
from .lie import *
from .ncqm import *
from .poly import *
from .report import *
from .weyl import *

__version__ = "0.1.0"

__all__ = (
    coeffs.__all__
    + deform.__all__
    + hermite.__all__
    + lie.__all__
    + ncqm.__all__
    + poly.__all__
    + report.__all__
    + weyl.__all__
)
