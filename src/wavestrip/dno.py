"""Boundary straightening, the strip elliptic solver, and the DNO G(eta).

The fluid strip below the surface is flattened by the smoothed diffeomorphism

    rho(x, z) = (1+z) E(delta z) eta - z (E(-delta (1+z)) eta - h),

with E(t) the smoothing semigroup exp(t(<D>-1)); constants are exact fixed
points of E, so a flat or constant surface straightens to rho = eta + z h.
The solves read only derivatives of rho, never rho itself.  d_z rho - h and
every other derivative the coefficients need are linear in eta, so one
table of half-spectrum multipliers per (grid, delta, zpoints), built on
first use, takes rfft(eta) to all of them in one inverse transform.  Every
setting of a solve (h, delta, zpoints, tol, maxiter) comes in one checked
DNOParams.
The Laplace problem becomes the variable-coefficient strip problem

    (d_zz + alpha Lap_x + beta . grad_x d_z - gamma d_z) Phi = F,
    Phi(z=0) = psi,  (g1 d_z - g2 . grad_x) Phi(z=-1) = bottom flux (0),

discretized by Fourier collocation in x and Chebyshev-Lobatto collocation in
z in [-1, 0], and solved by right-preconditioned restarted GMRES (Saad &
Schultz, SIAM J. Sci. Stat. Comput. 7, 1986).  Each iteration costs one
preconditioner apply and one operator apply, together one forward and two
inverse x transforms: the operator apply of a preconditioned direction
reuses the half spectrum the preconditioner formed it from.  A solve returns
once the true relative residual |b - A x| / |b| is at most tol; that
residual is formed at the end of each cycle of at most 80 iterations, and
the next cycle restarts from it, for at most ceil(maxiter / 80) cycles.  A
strip solve takes real data only (G(eta) is a real operator, so a caller
with complex psi solves its real and imaginary parts apart) and returns the
solved field with its GMRES unknown, iteration count and true residual.
Each solve builds its own solver and starts GMRES from a guess potential
(zero without one) plus the flat strip's harmonic extension of the change
of surface data; the domain carries that lift, tabulated once per
(grid, h, zpoints) (see StripSolver.solve).
Every x-derivative runs on the rfft half spectrum of the real samples,
through ``grid``, the one package module imported here.  The
preconditioner is the strip operator with alpha and g1 replaced by their
means (alpha over the interior nodes, g1 at the bottom) and without gamma,
beta and g2 (exact when the surface is flat, so that case converges in one
iteration).  It is diagonal in the x-Fourier modes, and its z-line operators
differ between modes only by -|k|^2 alpha_bar, so one eigendecomposition in
z inverts all of them: the matrix-diagonalization method of Haidvogel &
Zang, "The accurate solution of Poisson's equation by expansion in Chebyshev
polynomials", J. Comput. Phys. 30 (1979).  With the bottom datum scaled by
1 / g1_bar, that z-line operator is the flat one, so its real eigenbasis is
computed once per zpoints and a solver build only forms the per-mode scales.
The bottom row is the conormal (physical no-flux) operator rather than the
bare d_z: the straightened bottom z = -1 is the curved physical line
y = eta - h, and only the conormal condition keeps the resulting
Dirichlet-Neumann operator self-adjoint and positive.  The surface trace
G(eta) psi = (g1 d_z - g2 . grad_x) Phi at z = 0 uses the spectral one-sided
Chebyshev derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from weakref import WeakKeyDictionary

import numpy as np
from scipy.linalg import solve_triangular

from wavestrip.grid import (
    Field,
    PeriodicGrid,
    _read_only,
    apply_half_symbols,
    dealias,
    gradient_x,
    irfft_x,
    is_count,
    rfft_x,
)


class StraighteningError(RuntimeError):
    """d_z rho dropped below h/2; carries the offending minimum."""

    def __init__(self, min_dz_rho: float, threshold: float):
        self.min_dz_rho = min_dz_rho
        self.threshold = threshold
        super().__init__(
            f"straightening failed: min d_z rho = {min_dz_rho:.6g} < {threshold:.6g}"
        )


class EllipticSolveError(RuntimeError):
    """Krylov iteration did not reach the requested residual.

    ``residual`` is the true relative residual |b - A x| / |b| of the last
    iterate; ``history`` holds, per GMRES iteration, the estimate of that
    true residual from the Arnoldi least-squares problem.
    """

    def __init__(self, residual: float, history: list[float]):
        self.residual = residual
        self.history = history
        super().__init__(f"elliptic solve stalled at relative residual {residual:.3e}")


def _check_solver_limits(tol: float, maxiter: int) -> None:
    """Reject a GMRES tol <= 0, below any reachable residual, a tol >= 1,
    which the zero unknown already meets, and a maxiter that is not an integer
    >= 1, which runs no cycle; DNOParams and StripSolver both check here."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if not is_count(maxiter) or maxiter < 1:
        raise ValueError(f"maxiter must be an integer >= 1, got {maxiter!r}")


@dataclass(frozen=True)
class DNOParams:
    """Every setting of a strip solve, checked once here: straighten,
    solve_laplace, dno_solve and the Taylor solve take it whole.

    The strip depth h is positive and finite; the smoothing delta is
    nonnegative, since E(delta z) with delta < 0 amplifies high modes, and
    finite; zpoints is an integer >= 3, which leaves an interior Chebyshev
    node; tol lies in (0, 1) and maxiter an integer that allows one GMRES
    iteration at least.  Numpy integers count as integers, bools do not.
    """

    h: float = 1.0
    delta: float = 0.1
    zpoints: int = 48
    tol: float = 1e-12
    maxiter: int = 400

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ValueError(f"strip depth h must be positive and finite, got {self.h}")
        if not 0 <= self.delta < math.inf:
            raise ValueError(
                f"smoothing delta must be nonnegative and finite, got {self.delta}")
        if not is_count(self.zpoints) or self.zpoints < 3:
            raise ValueError(f"zpoints must be an integer >= 3, got {self.zpoints!r}")
        _check_solver_limits(self.tol, self.maxiter)


def chebyshev_lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (on [-1, 0], first node 0) and differentiation matrix d/dz."""
    m = n - 1
    t = np.cos(np.pi * np.arange(n) / m)  # 1 .. -1
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n)
    T = np.tile(t, (n, 1)).T
    dT = T - T.T + np.eye(n)
    D = np.outer(c, 1.0 / c) / dT
    D -= np.diag(D.sum(axis=1))
    z = (t - 1.0) / 2.0  # 0 .. -1
    return z, 2.0 * D  # chain rule dz = dt/2


@dataclass(frozen=True)
class _ZLine:
    """Tables of the Chebyshev z line that depend on zpoints only.

    The preconditioner's z-line problem with alpha = 1 and g1 = 1 is
    Dz2 u = r on the interior nodes and Dz u = r at the bottom, with u = 0
    at the surface.  The bottom row gives u_b = t - e . u_I with the scaled
    bottom datum t = r_b / Dz[-1, -1]; eliminating u_b leaves the reduced
    interior operator, diagonalized once as E diag(lam) E^{-1} (real, with
    negative simple eigenvalues).  ``V`` and ``W`` fold the elimination in:

        W [r_I; t] = [E^{-1} (r_I - c t); t],   V [y; t] = [E y; t - e . E y],

    where c is the column of the interior rows on the bottom unknown.
    """

    z: np.ndarray
    Dz: np.ndarray
    dz_rows: np.ndarray  # rows 1.. of Dz, then interior rows of Dz2, on u_1..
    lam: np.ndarray
    V: np.ndarray
    W: np.ndarray


@cache
def _z_line(zpoints: int) -> _ZLine:
    """The z line of ``zpoints`` Chebyshev nodes, built on first use."""
    z, Dz = chebyshev_lobatto(zpoints)
    Dz2 = Dz @ Dz
    n = zpoints - 1
    e = Dz[-1, 1:-1] / Dz[-1, -1]
    c = Dz2[1:-1, -1]
    lam, vecs = np.linalg.eig(Dz2[1:-1, 1:-1] - np.outer(c, e))
    if np.iscomplexobj(lam):
        raise ValueError(f"z-line eigenbasis at zpoints = {zpoints} is not real")
    inv = np.linalg.inv(vecs)
    V = np.zeros((n, n))
    V[:-1, :-1] = vecs
    V[-1, :-1] = -e @ vecs
    V[-1, -1] = 1.0
    W = np.zeros((n, n))
    W[:-1, :-1] = inv
    W[:-1, -1] = -inv @ c
    W[-1, -1] = 1.0
    dz_rows = np.vstack([Dz[1:, 1:], Dz2[1:-1, 1:]])
    return _ZLine(*(_read_only(a) for a in (z, Dz, dz_rows, lam, V, W)))


@dataclass
class StraightenedDomain:
    """The derivatives of rho(x, z) the solves read, each (nz, *grid.shape),
    the elliptic coefficients on the strip, the smoothing ``delta`` used
    after any halvings, and the lift 1 - H that starts each solve."""

    grid: PeriodicGrid
    delta: float
    z: np.ndarray                      # Chebyshev nodes, z[0] = 0, z[-1] = -1
    Dz: np.ndarray                     # differentiation matrix in z
    lift: np.ndarray                   # (nz - 1, *grid.half_shape)
    drho_z: np.ndarray
    drho_x: tuple[np.ndarray, ...]
    alpha: np.ndarray
    beta: tuple[np.ndarray, ...]
    gamma: np.ndarray

    @property
    def nz(self) -> int:
        return len(self.z)

    def chain_gradient(self, values: np.ndarray) -> np.ndarray:
        """Chain-rule gradient (Lambda_1 v, *Lambda_2 v), stacked first.

        Lambda_1 = (1/d_z rho) d_z is the vertical derivative and
        Lambda_2 = grad_x - grad_x rho Lambda_1 the horizontal gradient of
        the physical domain.  Axes of ``values`` before (nz, *grid.shape)
        batch, so one d_z product and one gradient transform serve a stack.
        """
        flat = values.reshape(values.shape[:-self.grid.dim] + (-1,))
        vz = (self.Dz @ flat).reshape(values.shape) / self.drho_z
        grads = gradient_x(values, self.grid)
        return np.stack([vz] + [g - rx * vz for g, rx in zip(grads, self.drho_x)])

    def flux_coefficients(self, row: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """(g1, g2) of the conormal operator g1 d_z - g2 . grad_x at a z row."""
        grad_rho = [g[row] for g in self.drho_x]
        g1 = (1.0 + sum(g ** 2 for g in grad_rho)) / self.drho_z[row]
        return g1, grad_rho

    def conormal_flux(self, values: np.ndarray, row: int) -> np.ndarray:
        """(Lambda_1 - grad rho . Lambda_2) values at a z row (no dealiasing)."""
        g1, g2 = self.flux_coefficients(row)
        out = g1 * np.tensordot(self.Dz[row], values, axes=1)
        for g2c, gc in zip(g2, gradient_x(values[row], self.grid)):
            out = out - g2c * gc
        return out


def straighten(eta: Field, params: DNOParams) -> StraightenedDomain:
    """Build the elliptic coefficients of the strip of depth params.h under
    eta, smoothed by params.delta, on params.zpoints Chebyshev nodes.

    Every derivative of rho that the coefficients need is linear in eta, so
    one cached table of half-spectrum multipliers (see _straightening_table)
    and one inverse transform give them all; the depth enters as the
    constant h of d_z rho.  The domain carries the cached lift table of
    (grid, h, zpoints) that starts its solves (see _lift_table).

    Raises StraighteningError when min d_z rho < h/2 anywhere; the caller is
    expected to halve delta and retry (see straighten_adaptive).
    """
    grid, h = eta.grid, params.h
    line = _z_line(params.zpoints)
    table = _straightening_table(grid, params.delta, params.zpoints)
    lift = _lift_table(grid, h, params.zpoints)
    drho_z, d2rho_z, lap_rho, *grads = irfft_x(table * rfft_x(eta.values, grid), grid)
    drho_z = drho_z + h

    min_dz = float(np.min(drho_z))
    if min_dz < h / 2.0:
        raise StraighteningError(min_dz, h / 2.0)

    # the domain keeps copies, not views that would hold the whole stack
    drho_x = tuple(g.copy() for g in grads[:grid.dim])
    grad_drho_z = grads[grid.dim:]
    grad2 = sum(g ** 2 for g in drho_x)
    alpha = drho_z ** 2 / (1.0 + grad2)
    beta = tuple(-2.0 * drho_z * g / (1.0 + grad2) for g in drho_x)
    gamma = (d2rho_z + alpha * lap_rho
             + sum(b * g for b, g in zip(beta, grad_drho_z))) / drho_z
    return StraightenedDomain(
        grid=grid, delta=params.delta, z=line.z, Dz=line.Dz, lift=lift,
        drho_z=drho_z, drho_x=drho_x, alpha=alpha, beta=beta, gamma=gamma,
    )


# per grid, the straightening table of each (delta, zpoints); an entry lives
# as long as its grid
_STRAIGHTENING_TABLES: WeakKeyDictionary = WeakKeyDictionary()


def _straightening_table(grid: PeriodicGrid, delta: float,
                         zpoints: int) -> np.ndarray:
    """Half-spectrum multipliers taking rfft(eta) to the spectra of
    d_z rho - h, d_z^2 rho, Lap rho, grad rho and grad d_z rho.

    With E(s) = exp(s (<k> - 1)), rho - h z = ((1+z) E(delta z)
    - z E(-delta (1+z))) eta, so each row is a z-dependent multiplier of
    eta_hat.  rho itself has no row: no solve reads it.  Shape
    (3 + 2 dim, zpoints, *grid.half_shape); built on first use and shared,
    read-only, by every surface on the grid.
    """
    tables = _STRAIGHTENING_TABLES.setdefault(grid, {})
    key = (delta, zpoints)
    if key not in tables:
        zc = _z_line(zpoints).z.reshape((-1,) + (1,) * grid.dim)
        kb = np.sqrt(1.0 - grid.half_laplacian_symbol) - 1.0
        ea = np.exp(delta * zc * kb)
        eb = np.exp(-delta * (1.0 + zc) * kb)
        rho = (1.0 + zc) * ea - zc * eb
        rho_z = ea + (1.0 + zc) * delta * kb * ea - eb + zc * delta * kb * eb
        rho_zz = (2.0 * delta * kb + (1.0 + zc) * (delta * kb) ** 2) * ea \
            + (2.0 * delta * kb - zc * (delta * kb) ** 2) * eb
        grad = grid.half_gradient_symbols
        tables[key] = _read_only(np.stack(
            [rho_z, rho_zz, grid.half_laplacian_symbol * rho]
            + [ik * rho for ik in grad] + [ik * rho_z for ik in grad]))
    return tables[key]


# per grid, the lift table of each (h, zpoints); an entry lives as long as
# its grid
_LIFT_TABLES: WeakKeyDictionary = WeakKeyDictionary()


def _lift_table(grid: PeriodicGrid, h: float, zpoints: int) -> np.ndarray:
    """Half-spectrum multipliers 1 - H at the z nodes 1.., with H the
    harmonic extension of surface data into the flat strip of depth h,

        H(k, z) = cosh(|k| h (1+z)) / cosh(|k| h)
                = e^{|k| h z} (1 + e^{-2 |k| h (1+z)}) / (1 + e^{-2 |k| h}),

    the second form free of overflow for z <= 0.  Shape
    (zpoints - 1, *grid.half_shape); built by the first straightening at
    that h and zpoints, before its temporaries, and shared, read-only, by
    every domain on the grid as StraightenedDomain.lift.
    """
    tables = _LIFT_TABLES.setdefault(grid, {})
    key = (h, zpoints)
    if key not in tables:
        zc = _z_line(zpoints).z[1:].reshape((-1,) + (1,) * grid.dim)
        kh = np.sqrt(-grid.half_laplacian_symbol) * h
        lift = np.exp(kh * zc) * (1.0 + np.exp(-2.0 * kh * (1.0 + zc))) \
            / (1.0 + np.exp(-2.0 * kh))
        tables[key] = _read_only(1.0 - lift)
    return tables[key]


MAX_DELTA_HALVINGS = 6


def straighten_adaptive(eta: Field, params: DNOParams) -> StraightenedDomain:
    """straighten with the delta-halving retry policy."""
    last: StraighteningError | None = None
    for _ in range(MAX_DELTA_HALVINGS + 1):
        try:
            return straighten(eta, params)
        except StraighteningError as exc:
            last = exc
            params = replace(params, delta=0.5 * params.delta)
    raise last


@dataclass
class StraightenedField:
    """A field solved by ``StripSolver.solve`` on the (x, z) tensor grid.

    As a solve's guess it may also be a linear combination of solved fields,
    with no iteration count (0) and no residual (nan) of its own.
    """

    values: np.ndarray  # (nz, *grid.shape); row 0 is the surface z = 0
    # its GMRES unknown Phi[1:] - surface, iteration count and true relative
    # residual |b - A unknown| / |b| (0 when b = 0)
    unknown: np.ndarray
    iterations: int
    residual: float


class StripSolver:
    """Preconditioned GMRES for the straightened strip operator.

    The unknowns are Phi at the z nodes 1..nz-1 (the surface value is carried
    by a z-constant lift).  The preconditioner solves, per x-Fourier mode k,
    the z-line problem with two scalar coefficients,

        (Dz2 - |k|^2 alpha_bar) u = r  on the interior nodes,
        g1_bar Dz u = r  at the bottom,

    with alpha_bar the mean of alpha over the interior nodes and g1_bar the
    mean of g1 at the bottom; gamma, beta and g2 are left out, and GMRES
    absorbs the variable-coefficient remainder.  On a flat strip this is the
    operator itself.  Scaling the bottom datum by 1 / (g1_bar Dz[-1, -1])
    makes the line operator the flat one, whose eigenbasis depends on
    zpoints only and is cached (see _ZLine), so the build computes just

        mode_scale = 1 / (lam + alpha_bar * (-|k|^2))

    (matrix diagonalization, Haidvogel & Zang, J. Comput. Phys. 30, 1979).
    The apply is V (scale * (W r)), two real matrix products on the real
    and imaginary parts of the rfft half spectrum.

    GMRES is preconditioned on the right, so it minimizes the true residual
    b - A x over x0 + span(Z) with Z = M V.  Each iteration costs exactly one
    ``_precond`` and one ``_matvec``, together one forward and two inverse x
    transforms: ``_precond`` returns z = M v with its half spectrum, which
    ``_matvec`` takes instead of transforming z again.  A solve adds one
    ``_matvec`` of real input for the residual of its start and one per
    cycle for the true residual of the new iterate.  The solve returns once
    that residual is at most ``tol`` (relative to |b|) and otherwise restarts
    from it, with cycles of at most 80 iterations and at most
    ceil(maxiter / 80) cycles.  When the cycles run out, the solve is
    accepted if the residual is within max(50 tol, 1e-13) and raises
    EllipticSolveError otherwise.  The data is real; ``solve``
    returns the solved field, and ``last_iterations`` also counts the
    iterations of the last solve, failed or not.  solve_laplace builds a
    solver per solve, so nothing refers back to the domain.
    """

    def __init__(self, dom: StraightenedDomain, tol: float, maxiter: int):
        _check_solver_limits(tol, maxiter)
        self.dom = dom
        self.tol = tol
        self.maxiter = maxiter
        grid = dom.grid
        line = _z_line(dom.nz)
        self._dz_rows = line.dz_rows
        self.g1_bottom, self.g2_bottom = dom.flux_coefficients(-1)
        alpha_bar = float(np.mean(dom.alpha[1:-1]))
        n = dom.nz - 1
        mode_scale = np.reciprocal(
            line.lam[:, None] + alpha_bar * grid.half_laplacian_symbol.reshape(1, -1))
        # one scale per real number of the half spectrum; the last row
        # passes the scaled bottom datum through
        scale = np.ones((n, mode_scale.shape[1], 2))
        scale[:-1, :, 0] = scale[:-1, :, 1] = mode_scale
        self._scale = scale.reshape(n, -1)
        self._V = line.V
        self._W = line.W.copy()
        self._W[:, -1] /= float(np.mean(self.g1_bottom)) * line.Dz[-1, -1]
        self.last_iterations = 0

    def _matvec(self, vec: np.ndarray, half: np.ndarray | None = None) -> np.ndarray:
        """A vec; ``half`` is rfft_x of vec when the caller already has it."""
        dom = self.dom
        grid = dom.grid
        dim = grid.dim
        n = dom.nz - 1
        m = n - 1
        # u at the nodes 1..nz-1; u = 0 at the surface
        uz_uzz = (self._dz_rows @ vec.reshape(n, -1)).reshape((-1,) + grid.shape)
        uh = rfft_x(vec.reshape((n,) + grid.shape), grid) if half is None else half
        # d_z commutes with the x transform; the real Dz acts on real pairs
        uzh = (self._dz_rows[:m] @ uh.reshape(n, -1).view(float)).view(complex)
        spec = np.empty((m * (dim + 1) + dim,) + grid.half_shape, dtype=complex)
        np.multiply(grid.half_laplacian_symbol, uh[:-1], out=spec[:m])
        for j, ik in enumerate(grid.half_gradient_symbols):
            np.multiply(ik, uzh.reshape((m,) + grid.half_shape),
                        out=spec[m * (j + 1):m * (j + 2)])
            np.multiply(ik, uh[-1], out=spec[m * (dim + 1) + j])
        der = irfft_x(spec, grid)
        out = np.empty((n,) + grid.shape)
        out[:-1] = uz_uzz[n:] + dom.alpha[1:-1] * der[:m] - dom.gamma[1:-1] * uz_uzz[:m]
        for j, b in enumerate(dom.beta):
            out[:-1] += b[1:-1] * der[m * (j + 1):m * (j + 2)]
        out[-1] = self.g1_bottom * uz_uzz[m]
        for g2c, gb in zip(self.g2_bottom, der[m * (dim + 1):]):
            out[-1] -= g2c * gb
        return out.ravel()

    def _precond(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """z = M vec and its half spectrum, which _matvec takes as ``half``."""
        grid = self.dom.grid
        n = self.dom.nz - 1
        rh = rfft_x(vec.reshape((n,) + grid.shape), grid).reshape(n, -1).view(float)
        sol = self._V @ (self._scale * (self._W @ rh))
        half = sol.view(complex).reshape((n,) + grid.half_shape)
        return irfft_x(half, grid).ravel(), half

    def _gmres(self, b: np.ndarray, bnorm: float,
               x: np.ndarray) -> tuple[np.ndarray, float, list[float]]:
        """Right-preconditioned restarted GMRES for A x = b from x.

        Returns x, its true relative residual |b - A x| / |b|, and the
        per-iteration estimate of that residual.  The preconditioned
        directions Z = M V are kept, so x = x0 + Z y needs no further apply.
        """
        restart = min(80, self.maxiter)
        cycles = math.ceil(self.maxiter / restart)
        target = self.tol * bnorm
        r = b - self._matvec(x)
        history: list[float] = []
        hess = np.zeros((restart, restart))
        cs, sn, g = np.zeros(restart), np.zeros(restart), np.zeros(restart + 1)
        V = np.empty((restart + 1, b.size))
        Z = np.empty_like(V)
        for _ in range(cycles):
            beta = float(np.linalg.norm(r))
            if beta <= target:
                break
            V[0] = r * (1.0 / beta)
            g[0] = beta
            for j in range(restart):
                Z[j], half = self._precond(V[j])
                w = self._matvec(Z[j], half)
                # classical Gram-Schmidt, run twice
                col = V[:j + 1] @ w
                w -= col @ V[:j + 1]
                again = V[:j + 1] @ w
                w -= again @ V[:j + 1]
                col += again
                w_norm = float(np.linalg.norm(w))
                for i in range(j):
                    col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                          cs[i] * col[i + 1] - sn[i] * col[i])
                diag = np.hypot(col[j], w_norm)
                cs[j], sn[j] = col[j] / diag, w_norm / diag
                col[j] = diag
                hess[:j + 1, j] = col
                g[j + 1] = -sn[j] * g[j]
                g[j] *= cs[j]
                history.append(abs(float(g[j + 1])) / bnorm)
                if abs(g[j + 1]) <= target:
                    break
                V[j + 1] = w * (1.0 / w_norm)
            k = j + 1
            x = x + solve_triangular(hess[:k, :k], g[:k]) @ Z[:k]
            r = b - self._matvec(x)
        return x, float(np.linalg.norm(r)) / bnorm, history

    def solve(self, surface: np.ndarray, source: np.ndarray | None,
              bottom_flux: np.ndarray | None,
              guess: StraightenedField | None) -> StraightenedField:
        """Solve the strip problem for real data; return the solved field.

        ``source``, ``bottom_flux`` and ``guess`` are None when absent (see
        solve_laplace).  The result carries the GMRES unknown u = Phi[1:] - surface, the
        iteration count and the true relative residual |b - A u| / |b|.
        ``guess`` is a potential in that form, typically solved on a nearby
        surface, on any domain of the same grid and zpoints; no guess is the
        zero field.  GMRES starts from the guess with the surface change
        d = surface - guess.values[0] lifted by the flat strip's harmonic
        extension H (dom.lift = 1 - H), that is from guess.unknown - (d - H d),
        so a cold solve starts from Phi = H surface.  An unchanged surface
        leaves guess.unknown as it is, free of the rounding of Phi = u + psi,
        so an exact guess takes no iteration.  Complex or non-finite data, or
        data not of shape grid.shape ((nz, *grid.shape) for the source and
        (nz - 1, *grid.shape) for the guess unknown), raises ValueError.
        """
        dom = self.dom
        grid = dom.grid
        nz, shape = dom.nz, grid.shape
        surface = np.asarray(surface)
        if guess is None:
            guess = StraightenedField(np.zeros((nz,) + shape), np.zeros((nz - 1,) + shape),
                                      0, 0.0)
        elif np.shape(guess.unknown) != (nz - 1,) + shape:
            raise ValueError(f"guess has shape {np.shape(guess.unknown)} of GMRES "
                             f"unknown, expected {(nz - 1,) + shape}")
        inputs = {"surface": (surface, shape), "source": (source, (nz,) + shape),
                  "bottom flux": (bottom_flux, shape),
                  "guess unknown": (guess.unknown, (nz - 1,) + shape),
                  "guess surface": (guess.values[0], shape)}
        for name, (data, want) in inputs.items():
            if data is None:
                continue
            if np.iscomplexobj(data):
                raise ValueError("the strip solve takes real data; "
                                 "solve the real and imaginary parts apart")
            if np.shape(data) != want:
                raise ValueError(f"the {name} has shape {np.shape(data)}, expected {want}")
            if not np.all(np.isfinite(data)):
                raise ValueError(f"the strip solve takes finite data; the {name} is not")
        lap_surf, *grad_surf = apply_half_symbols(
            surface, grid, (grid.half_laplacian_symbol,) + grid.half_gradient_symbols)
        b = np.zeros((nz - 1,) + shape)
        b[:-1] = -dom.alpha[1:-1] * lap_surf
        if source is not None:
            b[:-1] += source[1:-1]
        # the z-constant lift has conormal flux -g2 . grad psi at the bottom
        for g2c, gc in zip(self.g2_bottom, grad_surf):
            b[-1] += g2c * gc
        if bottom_flux is not None:
            b[-1] += bottom_flux
        bvec = b.ravel()
        bnorm = float(np.linalg.norm(bvec))
        phi = np.empty((nz,) + shape)
        phi[:] = surface
        if bnorm == 0.0:
            self.last_iterations = 0
            return StraightenedField(phi, np.zeros((nz - 1,) + shape), 0, 0.0)

        # x0 = u_g - (1 - H)(psi - psi_g)
        change = rfft_x(surface - guess.values[0], grid)
        x0 = (guess.unknown - irfft_x(dom.lift * change, grid)).ravel()
        sol, residual, history = self._gmres(bvec, bnorm, x0)
        self.last_iterations = len(history)
        if not residual <= max(50.0 * self.tol, 1e-13):
            raise EllipticSolveError(residual, history)
        u = sol.reshape((nz - 1,) + shape)
        phi[1:] += u
        return StraightenedField(phi, u, len(history), residual)


def solve_laplace(dom: StraightenedDomain, psi: Field, params: DNOParams,
                  source: np.ndarray | None = None,
                  bottom_flux: Field | None = None,
                  guess: StraightenedField | None = None) -> StraightenedField:
    """Solve the straightened strip problem with real surface trace psi to
    the tol of ``params`` within its maxiter GMRES iterations.

    ``source`` is the interior right-hand side F, an array of shape
    (nz, *grid.shape) whose interior rows are read.  ``bottom_flux``
    prescribes the conormal data (g1 d_z - g2 . grad_x) at z = -1 (physical
    no-flux through the bottom when zero).  ``guess``, a potential or None
    for the zero field, starts GMRES with the change of surface data lifted
    harmonically (see StripSolver.solve).  Each call builds its own
    StripSolver and returns the field it solved.
    """
    return StripSolver(dom, tol=params.tol, maxiter=params.maxiter).solve(
        psi.values, source,
        None if bottom_flux is None else bottom_flux.values, guess)


@dataclass
class DNOSolution:
    """One potential solve: the straightened domain, the harmonic extension
    Phi on it and the trace G(eta) psi.  Every quantity of a state that
    needs Phi (traces, Taylor coefficient, energy) takes this object."""

    dom: StraightenedDomain
    phi: StraightenedField
    gpsi: Field


def surface_flux(dom: StraightenedDomain, phi: StraightenedField) -> Field:
    """(g1 d_z - g2 . grad_x) phi at z = 0, g1 = (1+|grad rho|^2)/d_z rho,
    dealiased.  The 2/3 rule is linear, so truncating the conormal flux once
    equals summing the dealiased products g1 d_z phi and g2 . grad_x phi."""
    return dealias(Field(dom.grid, dom.conormal_flux(phi.values, 0)))


def dno_solve(eta: Field, psi: Field, params: DNOParams,
              guess: StraightenedField | None = None) -> DNOSolution:
    """Straighten the strip under eta and evaluate G(eta) psi, keeping the
    domain and potential for reuse; ``params`` carries every setting of
    both steps.

    ``psi`` is real.  ``guess`` is a potential, typically the ``phi`` of an
    earlier solution on a nearby surface with the same grid and zpoints, or
    an extrapolation of such potentials; its GMRES unknown, with the change
    of surface data lifted harmonically, starts GMRES (see
    StripSolver.solve).  It changes the iteration count, not the tolerance
    the result meets.  ``phi`` is the solved field, with its unknown and
    count.  Another datum on the same domain is
    ``surface_flux(dom, solve_laplace(dom, psi, params))``.
    """
    dom = straighten_adaptive(eta, params)
    phi = solve_laplace(dom, psi, params, guess=guess)
    return DNOSolution(dom=dom, phi=phi, gpsi=surface_flux(dom, phi))

