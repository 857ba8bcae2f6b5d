"""Problem description shared by every solver and analysis routine."""

import math
import numbers
from dataclasses import dataclass

CELL = "cell"
POINT = "point"
SMOOTHERS = (CELL, POINT)

PERIODIC = "periodic"
DIRICHLET = "dirichlet"
BOUNDARY_MODES = (PERIODIC, DIRICHLET)


@dataclass(frozen=True)
class ProblemConfig:
    """Parameters of the discrete reaction-diffusion problem.

    Parameters
    ----------
    cells : int
        Number of mesh cells J.  Must be even and at least 4 so that a
        coarse mesh of paired cells exists.
    delta0 : float
        Dimensionless jump-penalization parameter; the face penalty is
        ``delta0 / h``.  Must be finite and >= 1.
    gamma : float
        Reaction scaling ``eps / h**2``.  ``math.inf`` selects the pure
        diffusion (Poisson) problem; every ``1/gamma`` term is then
        exactly zero.
    bc : str
        ``"periodic"`` or ``"dirichlet"``.  Dirichlet data is imposed
        weakly through boundary-face penalty and consistency terms.
    """

    cells: int
    delta0: float
    gamma: float = math.inf
    bc: str = PERIODIC

    def __post_init__(self):
        if not isinstance(self.cells, numbers.Integral):
            raise ValueError(f"cells must be an integer, got {self.cells!r}")
        if self.cells < 4 or self.cells % 2 != 0:
            raise ValueError(f"cells must be even and >= 4, got {self.cells}")
        if not 1.0 <= self.delta0 < math.inf:
            raise ValueError(f"delta0 must be finite and >= 1, got {self.delta0}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive (or inf), got {self.gamma}")
        if self.bc not in BOUNDARY_MODES:
            raise ValueError(f"bc must be one of {BOUNDARY_MODES}, got {self.bc!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.cells

    @property
    def is_poisson(self) -> bool:
        return math.isinf(self.gamma)

    @property
    def inv_gamma(self) -> float:
        """1/gamma, exactly zero for the Poisson problem."""
        return 0.0 if self.is_poisson else 1.0 / self.gamma


def check_smoother(kind: str) -> str:
    if kind not in SMOOTHERS:
        raise ValueError(f"smoother must be one of {SMOOTHERS}, got {kind!r}")
    return kind
