"""Time evolution under the effective Hamiltonian and population observables."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import OutOfRegimeError
from .model import EffectiveHamiltonian, LatticeModel, effective_hamiltonian

# eig_system's Vinv rule; efficiency_measured's eigen kernel and the Poisson unraveling
# keep it while perfbench's exceptional-point gate pins that kernel's eta (ROADMAP item 1).
_COND_CUTOFF = 1e8
# _propagators' rule.  V exp(-i w t) Vinv is off expm by k cond(V) u, u = 2^-53, with
# k = 0.4-1.03 on dimers with eps = Gamma = 0 and kappa/v from 2 (the exceptional point,
# cond 9.0e7) to 2.001 (cond 63), t in [0, 5].  A 1e-10 error allows cond(V) up to
# 1e-10 / (1.03 u) = 8.7e5; the cutoff keeps a margin of 8.7.  Seeded disorder models read < 15.
_EIGEN_COND = 1e5
_HERM_TOL = 1e-12
_EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Complex Hermitian PSD matrix with trace <= 1 (sub-normalized under loss)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", density_stack(np.array(self.matrix, dtype=complex)[None])[0])

    @property
    def n_sites(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def density_stack(matrices) -> np.ndarray:
    """An (m, n, n) stack of density matrices as a read-only complex array,
    after DensityMatrix's checks on every member at once: square, finite,
    Hermitian to 1e-12, eigenvalues >= -1e-10 (one batched Cholesky, see
    _first_negative_eig) and trace in [0, 1].  Raises ValueError with
    DensityMatrix's message for the first failing check.  A complex ndarray
    is checked and frozen in place, not copied."""
    m = np.asarray(matrices, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"density matrix must be square, got shape {m.shape[1:]}")
    if not np.all(np.isfinite(m)):
        raise ValueError("density matrix has non-finite entries")
    # |m - m^H| from the real and imaginary parts, which are views: no complex temporaries
    if np.any(np.hypot(m.real - m.real.swapaxes(1, 2), m.imag + m.imag.swapaxes(1, 2)) > _HERM_TOL):
        raise ValueError("density matrix is not Hermitian")
    low = _first_negative_eig(m)
    if low is not None:
        raise ValueError(f"density matrix not positive semidefinite (min eig {low:.3e})")
    tr = np.trace(m, axis1=1, axis2=2).real
    bad = np.flatnonzero((tr < -1e-10) | (tr > 1 + 1e-10))
    if bad.size:
        raise ValueError(f"trace {float(tr[bad[0]])} outside [0, 1]")
    m.setflags(write=False)
    return m


def _first_negative_eig(m: np.ndarray) -> float | None:
    """The lowest eigenvalue of the first member of the Hermitian (k, n, n)
    stack m whose spectrum dips below -1e-10, or None if no member's does.

    One batched Cholesky of m + 1e-10 I passes a stack that has no such
    member.  Cholesky reads the lower triangle, as eigvalsh does, and its
    verdict is the eigenvalue floor's to within its backward error (about
    n u ||m||, near 1e-15); only if it fails does a batched eigvalsh decide.
    """
    try:
        np.linalg.cholesky(m - _EIG_FLOOR * np.eye(m.shape[-1]))
        return None
    except np.linalg.LinAlgError:
        pass
    low = np.linalg.eigvalsh(m)[:, 0]
    bad = np.flatnonzero(low < _EIG_FLOOR)
    return float(low[bad[0]]) if bad.size else None


def _density_matrices(stack: np.ndarray) -> list:
    """One DensityMatrix per member of a stack that density_stack returned,
    each a view of it; the checks are not run again."""
    out = []
    for m in stack:
        rho = object.__new__(DensityMatrix)
        object.__setattr__(rho, "matrix", m)
        out.append(rho)
    return out


@dataclass(frozen=True)
class Propagator:
    """U(t) = exp(-i H_eff t)."""

    duration: float
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def pure_site_state(n_sites: int, site: int) -> DensityMatrix:
    """|site><site| as a density matrix (1-based site index)."""
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} out of range 1..{n_sites}")
    m = np.zeros((n_sites, n_sites), dtype=complex)
    m[site - 1, site - 1] = 1.0
    return DensityMatrix(m)


def _h_matrix(h_eff) -> np.ndarray:
    if isinstance(h_eff, EffectiveHamiltonian):
        return h_eff.matrix
    return np.asarray(h_eff, dtype=complex)


def eig_system(h_eff):
    """Eigendecomposition (w, V, Vinv, cond) of a possibly non-normal matrix.

    Vinv is None when cond(V) >= 1e8 (or is not finite): the eigenbasis is
    then too ill-conditioned to work in, and callers take a path without it.
    The result is memoized on the bytes of H (the 16 most recent matrices), so
    a tau scan decomposes its H_eff once; w, V and Vinv are read-only.
    """
    h = np.ascontiguousarray(_h_matrix(h_eff), dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise np.linalg.LinAlgError(f"eig_system needs a square matrix, got shape {h.shape}")
    return _eig_system(h.shape[0], h.tobytes())


@functools.lru_cache(maxsize=16)
def _eig_system(n: int, data: bytes):
    w, v = np.linalg.eig(np.frombuffer(data, dtype=complex).reshape(n, n))
    cond = np.linalg.cond(v)
    vinv = np.linalg.inv(v) if cond < _COND_CUTOFF else None
    for x in (w, v, vinv):
        if x is not None:
            x.setflags(write=False)
    return w, v, vinv, cond


def propagator(h_eff, t: float) -> Propagator:
    """exp(-i H_eff t) from _propagators, exact to roundoff also where H_eff
    is defective (an exceptional point)."""
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("t must be nonnegative and finite")
    return Propagator(duration=float(t), matrix=_propagators(h_eff, [t])[0])


def _propagators(h_eff, times) -> np.ndarray:
    """exp(-i H_eff t) for each t of a 1-D array as an (m, n, n) stack, U(0) = I
    exactly and one member per distinct t.  Where cond(V) of H_eff = V diag(w) Vinv
    is under _EIGEN_COND: one (m, n) x (n, n^2) product of exp(-i t w) with the
    table V[i,j] Vinv[j,k]; else one stacked expm, exact at an exceptional point."""
    h = _h_matrix(h_eff)
    if not np.all(np.isfinite(h)):
        raise ValueError("Hamiltonian has non-finite entries")
    t, at = np.unique(np.asarray(times, dtype=float), return_inverse=True)
    w, v, vinv, cond = eig_system(h)
    if cond >= _EIGEN_COND:
        return scipy.linalg.expm((-1j * h) * t[:, None, None])[at]
    n = w.shape[0]
    table = (v.T[:, :, None] * vinv[:, None, :]).reshape(n, n * n)
    u = (np.exp(np.multiply.outer(t, -1j * w)) @ table).reshape(-1, n, n)
    u[t == 0] = np.eye(n)
    return u[at]


def _time_grid(times) -> np.ndarray:
    """The requested output times as a float array, checked finite, sorted and nonnegative."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0) or np.any(times < 0):
        raise ValueError("times must be finite, sorted and nonnegative")
    return times


def _write_csv(path, header: str, rows) -> None:
    """Write the header line and one line per row of numbers, each as %.12g."""
    rows = np.asarray(rows, dtype=float)
    # on a float, % is bit for bit format(x, ".12g"), at about two thirds of the cost per line
    line = ",".join(["%.12g"] * rows.shape[1])
    lines = [header] + [line % tuple(row) for row in rows.tolist()]
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def evolve(u, rho) -> DensityMatrix:
    """U rho U-dagger, re-symmetrized to suppress roundoff drift."""
    um = u.matrix if isinstance(u, Propagator) else np.asarray(u, dtype=complex)
    rm = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if um.shape != rm.shape:
        raise ValueError(f"dimension mismatch: U {um.shape} vs rho {rm.shape}")
    return DensityMatrix(_conjugate(um, rm))


def _conjugate(u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """evolve's arithmetic on plain arrays: U r U-dagger, re-symmetrized; on
    stacks of matrices, pair by pair."""
    x = u @ r @ u.conj().swapaxes(-1, -2)
    return (x + x.conj().swapaxes(-1, -2)) / 2


def populations(rho) -> np.ndarray:
    """Site populations p_i = Re(rho_ii), of one state or along a stack of them."""
    rm = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return np.real(np.diagonal(rm, axis1=-2, axis2=-1)).copy()


def time_averaged_population(model: LatticeModel, site: int, T: float) -> float:
    """(1/T) int_0^T p_site(t) dt under unitary dynamics (kappa = Gamma = 0).

    With c_a = <site|a><a|init> on the eigenbasis of the Hermitian part,
    p_site(t) = sum_ab c_a c_b cos((w_a - w_b) t), whose average over [0, T]
    is exact: c . sinc((w_a - w_b) T / pi) . c.
    """
    if not (np.isfinite(T) and T > 0):
        raise ValueError("T must be positive and finite")
    if not 1 <= site <= model.n_sites:
        raise ValueError(f"site {site} out of range")
    w, v = np.linalg.eigh(effective_hamiltonian(model).hermitian_part)
    c = v[site - 1, :] * v[model.initial_site - 1, :]
    return float(c @ np.sinc(np.subtract.outer(w, w) * (T / np.pi)) @ c)


def perturbative_average(model: LatticeModel) -> float:
    """Leading-order localized average population at the terminal site,
    (L+1)(v/eps)^(2L) with eps = eps_1 - eps_n."""
    n = model.n_sites
    c = model.couplings
    if np.any(c - np.triu(np.tril(c, 1), -1)):  # a coupling off the nearest-neighbour band
        raise ValueError("perturbative average requires chain topology")
    eps = float(model.site_energies[0] - model.site_energies[-1])
    if eps == 0.0:
        raise OutOfRegimeError("eps = eps_1 - eps_n vanishes; formula invalid")
    v = float(c[0, 1])
    L = n - 1
    return (L + 1) * (v / eps) ** (2 * L)
