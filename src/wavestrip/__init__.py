"""Pseudo-spectral gravity water waves on a boundary-straightened strip.

Modules cover the periodic spectral substrate (``grid``), uniformly local
norm machinery (``ulspaces``), paradifferential operators (``paradiff``), the
straightened Dirichlet-Neumann solver (``dno``), the surface evolution system
(``core``), symmetrizer diagnostics (``symmetrizer``), and time integration
(``stepping``).
"""

from wavestrip.grid import Field, PeriodicGrid, make_grid

__all__ = ["Field", "PeriodicGrid", "make_grid"]
__version__ = "0.1.0"
