"""The paradifferential remainder of the Dirichlet-Neumann operator.

G(eta) = T_lambda + R(eta), with lambda the principal symbol
``wavestrip.symmetrizer.dno_principal_symbol`` of G(eta); the tests check that R(eta) is exponentially small on a
flat strip and gains half an order on a curved one.  The package evaluates
G(eta) and lambda but has no use for R itself.
"""

from wavestrip.dno import DNOParams, dno_solve
from wavestrip.grid import Field
from wavestrip.paradiff import paradiff_apply
from wavestrip.symmetrizer import dno_principal_symbol


def dno_remainder(eta: Field, psi: Field, params: DNOParams) -> Field:
    """R(eta) psi = G(eta) psi - T_lambda psi."""
    return dno_solve(eta, psi, params).gpsi - paradiff_apply(dno_principal_symbol(eta), psi)
