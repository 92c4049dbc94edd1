"""Time evolution under the effective Hamiltonian and population observables."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRegimeError
from .model import EffectiveHamiltonian, LatticeModel, effective_hamiltonian

# eig_system's Vinv rule; past it efficiency_measured takes transfer's exact doubling.  Its
# eigen kernel (eta 13.96 at the exceptional-point dimer, tau = 0.1) and the Poisson unraveling
# keep 1e8 while perfbench's exceptional-point gate pins that eta (ROADMAP item 1).
_COND_CUTOFF = 1e8
# _propagators' rule.  V exp(-i w t) Vinv is off expm by k cond(V) u, u = 2^-53, with
# k = 0.4-1.03 on dimers with eps = Gamma = 0 and kappa/v from 2 (the exceptional point,
# cond 9.0e7) to 2.001 (cond 63), t in [0, 5].  A 1e-10 error allows cond(V) up to
# 1e-10 / (1.03 u) = 8.7e5; the cutoff keeps a margin of 8.7.  Seeded disorder models read < 15.
_EIGEN_COND = 1e5
# The Poisson integrals' rule (transfer._poisson_integrals).  Their eigen sums Re[(P . E) Q] cancel
# terms of size cond(V)^2, and the renewal series amplifies what is left as the rate r grows past
# the hopping rates (Zeno regime), as it does any kernel's error.  On dimers with eps = Gamma = 0,
# v = 1 and kappa = 2 + 10^-1 ... 10^-7 (cond 6.4 to 6.3e3), where eta = 1 exactly, |eta - 1| read
# k cond(V)^2 u with k <= 0.73 at r = 0, 1.9 at r = 1 and 39 at r = 10.  A 1e-10 error up to r = 10
# allows cond(V) up to (1e-10 / (39 u))^(1/2) = 152; the cutoff keeps a margin of 2.3 in the error.
_EIGEN_SUM_COND = 100.0
_HERM_TOL = 1e-12
_EIG_FLOOR = -1e-10
# Higham's theta_m (2005; the same in Al-Mohy and Higham 2009): the largest ||a||_1, or
# eta, at which the degree-m Pade approximant has backward error at most 2^-53;
# degree 13 scales eta down to Al-Mohy and Higham's _THETA13
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1), (7, 9.504178996162932e-1), (9, 2.097847961257068))
_THETA13 = 4.25
# the [m/m] Pade approximant of exp is p(x) / p(-x), p(x) = sum_j b_j x^j, b_j = (2m - j)! / (j! (m - j)!)
_PADE = {m: [float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j))) for j in range(m + 1)] for m in (3, 5, 7, 9, 13)}


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
    then too ill-conditioned to work in, and callers take a path without it
    (efficiency_measured the doubling of transfer._interval_integrals_doubling).
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
    table V[i,j] Vinv[j,k]; else one stacked _expm, exact at an exceptional point."""
    h = _h_matrix(h_eff)
    if not np.all(np.isfinite(h)):
        raise ValueError("Hamiltonian has non-finite entries")
    t, at = np.unique(np.asarray(times, dtype=float), return_inverse=True)
    w, v, vinv, cond = eig_system(h)
    if cond >= _EIGEN_COND:
        return _expm((-1j * h) * t[:, None, None])[at]
    n = w.shape[0]
    table = (v.T[:, :, None] * vinv[:, None, :]).reshape(n, n * n)
    u = (np.exp(np.multiply.outer(t, -1j * w)) @ table).reshape(-1, n, n)
    u[t == 0] = np.eye(n)
    return u[at]


def _expm(a) -> np.ndarray:
    """exp(a) for each matrix of a real or complex floating-point (..., n, n)
    stack, by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26,
    1179, 2005).

    The stack shares one Pade degree m and one scaling s, chosen for its
    member of largest norm.  Where ||a||_1 is at most theta_m for m = 3, 5 or
    7 (Higham's rule), that m is taken; otherwise scipy's expm rule (Al-Mohy
    and Higham, ibid. 31, 970, 2009) picks m and s from eta = ||a^k||_1^(1/k)
    of the even powers the approximant uses anyway, without their extra
    squarings for non-normal matrices.  ||a||_1 bounds every eta, so both
    rules keep the backward error within 2^-53, and neither forms more
    products than scipy forms.  The approximant r_m = (V - U)^-1 (V + U) of
    a / 2^s, with U and V its odd and even parts, is evaluated as
    I + 2 (V - U)^-1 U, which keeps the small correction to I apart from I
    and holds the trace of a long master-equation run (README, Tests) to the
    1e-12 that scipy's reaches; then it is squared s times."""
    a = np.asarray(a)
    diag = np.arange(a.shape[-1])
    # pw[k] = a^(2k) for k = 1 to 4, formed as first needed; the identity pw[0] is never formed
    pw = np.empty((5,) + a.shape, dtype=a.dtype)
    np.matmul(a, a, out=pw[1])
    formed = 1

    def power(k):
        nonlocal formed
        while formed < k:
            formed += 1
            np.matmul(pw[formed - 1], pw[1], out=pw[formed])
        return pw[k]

    def eta(x, k):  # ||x||_1^(1/k) for x = a^k, the largest over the stack
        return float(np.abs(x).sum(axis=-2).max(initial=0.0)) ** (1 / k)

    bound, s = eta(a, 1), 0
    m = next((deg for deg, theta in _THETA[:3] if bound <= theta), 0)
    if not m:
        bound = max(eta(power(2), 4), eta(power(3), 6))
        m = next((deg for deg, theta in _THETA[:2] if bound <= theta), 0)
    if not m:
        bound = max(eta(power(3), 6), eta(power(4), 8))
        m = next((deg for deg, theta in _THETA[2:] if bound <= theta), 13)
    b = _PADE[m]
    # uv = (U a^-1, V): the sums of the even powers, both in one product, then the identity terms
    if m < 13:
        power(m // 2)
        uv = np.tensordot([b[3::2], b[2::2]], pw[1 : m // 2 + 1], axes=1)
    else:
        bound = min(bound, max(eta(pw[4], 8), eta(pw[2] @ pw[3], 10)))
        s = max(math.ceil(math.log2(bound / _THETA13)), 0)
        a = a * 2.0**-s
        pw[1:4] *= (2.0 ** (-2.0 * s * np.arange(1, 4))).reshape((3,) + (1,) * a.ndim)
        uv = np.tensordot([b[3:8:2], b[2:8:2]], pw[1:4], axes=1)
        uv += pw[3] @ np.tensordot([b[9::2], b[8::2]], pw[1:4], axes=1)
    uv[0][..., diag, diag] += b[1]
    uv[1][..., diag, diag] += b[0]
    u = np.matmul(a, uv[0], out=pw[1])  # U, written over a^2, which is no longer needed
    uv[1] -= u
    # U and V - U are polynomials in a, so (V - U)^-1 U = U (V - U)^-1: solved from the right,
    # as the transposed system, whose arrays numpy's solve copies to LAPACK's order unpermuted
    r = np.linalg.solve(uv[1].swapaxes(-1, -2), u.swapaxes(-1, -2)).swapaxes(-1, -2)
    r *= 2
    r[..., diag, diag] += 1
    for _ in range(s):
        r = r @ r
    return r


def _positive_finite(x, name="tau") -> float:
    """x as a float; ValueError, naming it, unless it is positive and finite."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be positive and finite")
    return float(x)


def _time_grid(times) -> np.ndarray:
    """The requested output times as a float array, checked finite, sorted and nonnegative."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0) or np.any(times < 0):
        raise ValueError("times must be finite, sorted and nonnegative")
    return times


def _from_real(y: np.ndarray) -> np.ndarray:
    """The (m, n, n) Hermitian stack rho = (y + y^T)/2 + i (y - y^T)/2 of the
    real stack y = Re rho + Im rho, Hermitian to the bit."""
    yt = y.swapaxes(1, 2)
    return (y + yt) / 2 + 1j * ((y - yt) / 2)


def _powers(step: np.ndarray, y0: np.ndarray, ks) -> np.ndarray:
    """The rows S^k y0 of the real step matrix S for the sorted distinct
    integers k >= 0 of ks, as a (len(ks), len(y0)) array.

    The ks split where two neighbours differ by more than 3.  Filling every
    row across a gap g computes g - 1 rows that no k needs; jumping it takes
    popcount(g) products of their own, where filled rows share the products
    of their piece.  g - 1 <= popcount(g) holds exactly for g <= 3, so a
    larger gap is jumped: the row advances by S^(2^j) for each set bit j of g.
    Each piece is then filled from its first row in ceil(log2(rows)) rounds: a
    round advances the rows filled so far by the current power in one
    product.  The powers S^(2^j) are squared as first needed and kept, so the
    work is about log2(max k) squarings plus the row products, and memory
    grows with len(ks) (at most 3 filled rows per k) and log2(max k), not
    with max k.  The rows are row vectors, so each product is a numpy @ from
    the right by a table entry (S^(2^j))^T."""
    ks = np.asarray(ks, dtype=np.intp)
    out = np.empty((ks.size, y0.size))
    table = [step.T]  # table[j] is (S^(2^j))^T: y^T (S^k)^T = (S^k y)^T

    def power(j):
        while len(table) <= j:
            table.append(table[-1] @ table[-1])
        return table[j]

    starts = np.flatnonzero(np.diff(ks, prepend=-4) > 3).tolist()  # the first index of each piece
    y, at = y0, 0
    for i0, i1 in zip(starts, starts[1:] + [ks.size]):
        lo, hi = int(ks[i0]), int(ks[i1 - 1])
        gap, j = lo - at, 0
        while gap:
            if gap & 1:
                y = y @ power(j)
            gap, j = gap >> 1, j + 1
        count = hi - lo + 1
        rows = out[i0:i1] if count == i1 - i0 else np.empty((count, y0.size))
        rows[0] = y
        done, j = 1, 0
        while done < count:
            m = min(done, count - done)
            rows[done : done + m] = rows[:m] @ power(j)
            done, j = done + m, j + 1
        if count != i1 - i0:
            out[i0:i1] = rows[ks[i0:i1] - lo]
        y, at = rows[-1], hi
    return out


def _write_csv(path, header: str, rows) -> None:
    """Write the header line and one line per row of numbers, each as %.12g."""
    rows = np.asarray(rows, dtype=float)
    # on a float, % is bit for bit format(x, ".12g"); one % formats every row at once
    line = ",".join(["%.12g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="") as f:
        f.write(header + "\n" + (line * rows.shape[0]) % tuple(rows.ravel().tolist()))


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
    T = _positive_finite(T, "T")
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
