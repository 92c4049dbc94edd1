"""Time evolution under the effective Hamiltonian and population observables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import OutOfRegimeError
from .model import EffectiveHamiltonian, LatticeModel, effective_hamiltonian

_COND_CUTOFF = 1e8
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
    after DensityMatrix's checks on every member at once (one batched
    eigvalsh): square, finite, Hermitian to 1e-12, eigenvalues >= -1e-10 and
    trace in [0, 1].  Raises ValueError with DensityMatrix's message for the
    first failing check.  A complex ndarray is checked and frozen in place,
    not copied."""
    m = np.asarray(matrices, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"density matrix must be square, got shape {m.shape[1:]}")
    if not np.all(np.isfinite(m)):
        raise ValueError("density matrix has non-finite entries")
    # |m - m^H| from the real and imaginary parts, which are views: no complex temporaries
    if np.any(np.hypot(m.real - m.real.swapaxes(1, 2), m.imag + m.imag.swapaxes(1, 2)) > _HERM_TOL):
        raise ValueError("density matrix is not Hermitian")
    low = np.linalg.eigvalsh(m)[:, 0]
    bad = np.flatnonzero(low < _EIG_FLOOR)
    if bad.size:
        raise ValueError(f"density matrix not positive semidefinite (min eig {low[bad[0]]:.3e})")
    tr = np.trace(m, axis1=1, axis2=2).real
    bad = np.flatnonzero((tr < -1e-10) | (tr > 1 + 1e-10))
    if bad.size:
        raise ValueError(f"trace {float(tr[bad[0]])} outside [0, 1]")
    m.setflags(write=False)
    return m


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
    """
    h = _h_matrix(h_eff)
    w, v = np.linalg.eig(h)
    cond = np.linalg.cond(v)
    vinv = np.linalg.inv(v) if cond < _COND_CUTOFF else None
    return w, v, vinv, cond


def propagator(h_eff, t: float) -> Propagator:
    """exp(-i H_eff t) by scaling and squaring, exact to roundoff also where
    H_eff is defective (an exceptional point)."""
    h = _h_matrix(h_eff)
    if not np.all(np.isfinite(h)):
        raise ValueError("Hamiltonian has non-finite entries")
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("t must be nonnegative and finite")
    return Propagator(duration=float(t), matrix=scipy.linalg.expm(-1j * h * t))


def _time_grid(times) -> np.ndarray:
    """The requested output times as a float array, checked finite, sorted and nonnegative."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0) or np.any(times < 0):
        raise ValueError("times must be finite, sorted and nonnegative")
    return times


def evolve(u, rho) -> DensityMatrix:
    """U rho U-dagger, re-symmetrized to suppress roundoff drift."""
    um = u.matrix if isinstance(u, Propagator) else np.asarray(u, dtype=complex)
    rm = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if um.shape != rm.shape:
        raise ValueError(f"dimension mismatch: U {um.shape} vs rho {rm.shape}")
    return DensityMatrix(_conjugate(um, rm))


def _conjugate(u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """evolve's arithmetic on plain arrays: U r U-dagger, re-symmetrized."""
    x = u @ r @ u.conj().T
    return (x + x.conj().T) / 2


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
    off = np.abs(c) > 0
    chain_mask = np.zeros_like(off)
    idx = np.arange(n - 1)
    chain_mask[idx, idx + 1] = True
    chain_mask[idx + 1, idx] = True
    if np.any(off & ~chain_mask):
        raise ValueError("perturbative average requires chain topology")
    eps = float(model.site_energies[0] - model.site_energies[-1])
    if eps == 0.0:
        raise OutOfRegimeError("eps = eps_1 - eps_n vanishes; formula invalid")
    v = float(c[0, 1])
    L = n - 1
    return (L + 1) * (v / eps) ** (2 * L)
