"""Pseudo-spectral gravity water waves on a boundary-straightened strip.

Modules cover the periodic spectral substrate (``grid``), uniformly local
and Hoelder norms (``ulspaces``), the paraproduct and paradifferential
operators (``paradiff``), the straightened Dirichlet-Neumann solver
(``dno``), the surface evolution system with its Taylor coefficient
(``core``), the symmetrized energy (``symmetrizer``), and time integration
(``stepping``).  Every module serves ``stepping.integrate``; the one
exception, the Hoelder norms of ``ulspaces`` (``ulspaces.holder_norms``), is
kept to measure the derivatives the flow loses in W^{rho,inf}.  Checks that
only the tests call live with the tests.
"""

from wavestrip.grid import Field, PeriodicGrid, make_grid

__all__ = ["Field", "PeriodicGrid", "make_grid"]
__version__ = "0.1.0"
