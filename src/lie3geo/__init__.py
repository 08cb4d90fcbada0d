"""Left-invariant Riemannian geometry of three-dimensional Lie groups.

The package computes, for a 3D Lie algebra with an inner product: the
Levi-Civita connection and curvature of the corresponding left-invariant
metric, the Bianchi classification (types I through IX), and the left-
invariant conformal foliations by geodesics whose existence characterizes
which groups admit harmonic morphisms onto surfaces (every type except IV
and VI does, for a suitable metric).
"""

from . import algebra, bianchi, foliation, geometry
from .algebra import *
from .bianchi import *
from .foliation import *
from .geometry import *

__version__ = "0.1.0"

__all__ = [
    *algebra.__all__,
    *bianchi.__all__,
    *geometry.__all__,
    *foliation.__all__,
    "__version__",
]
