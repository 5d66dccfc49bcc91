"""Two-sided spectral bounds and stable explicit RK steps for FEM diffusion.

The package assembles mass, surrogate-mass, and stiffness matrices for
Lagrange elements of arbitrary order on simplicial meshes, computes
guaranteed two-sided bounds on the largest eigenvalue of the generalized
pencil, and turns those bounds into provably stable explicit Runge-Kutta
time steps with norm-growth certificates.

The public names are those of each library module's __all__.
"""

from . import assembly, bounds, mesh, reference, timestepping
from .assembly import *  # noqa: F403
from .bounds import *  # noqa: F403
from .mesh import *  # noqa: F403
from .reference import *  # noqa: F403
from .timestepping import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *reference.__all__,
    *mesh.__all__,
    *assembly.__all__,
    *bounds.__all__,
    *timestepping.__all__,
]
