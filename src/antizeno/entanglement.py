"""Reduced two-site states, Wootters concurrence, and closed-form concurrence
under repeated measurement of the middle site of a degenerate three-site chain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DensityMatrix,
    _first_negative_eig,
    _propagators,
    _time_grid,
    _write_csv,
    pure_site_state,
)
from .measurement import MeasurementChannel, _measured_stack
from .model import LatticeModel
from .open_system import DephasingSpec, _master_stack

_GG, _GE, _EG, _EE = 0, 1, 2, 3


@dataclass(frozen=True)
class TwoQubitState:
    """4x4 density matrix over {gg, ge, eg, ee} for an ordered site pair."""

    matrix: np.ndarray
    sites: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", _two_qubit_stack(np.array(self.matrix, dtype=complex)[None])[0])
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))


def _two_qubit_stack(matrices) -> np.ndarray:
    """A (k, 4, 4) stack as a read-only complex array (frozen in place, as in
    density_stack), after TwoQubitState's checks on every member at once:
    Hermitian to 1e-10, trace 1 to 1e-10 and eigenvalues >= -1e-10 (one
    batched Cholesky, as in density_stack)."""
    m = np.asarray(matrices, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValueError("two-qubit state must be 4x4")
    if np.any(np.abs(m - m.conj().swapaxes(1, 2)) > 1e-10):
        raise ValueError("two-qubit state not Hermitian")
    if np.any(np.abs(np.trace(m, axis1=1, axis2=2).real - 1.0) > 1e-10):
        raise ValueError("two-qubit state trace must be 1")
    if _first_negative_eig(m) is not None:
        raise ValueError("two-qubit state not positive semidefinite")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class ConcurrenceSeries:
    """Time-indexed concurrence values for a chosen site pair."""

    times: np.ndarray
    values: np.ndarray
    provenance: str  # "simulated" | "analytic" | "analytic_measured"

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        c = np.array(self.values, dtype=float)
        if t.shape != c.shape:
            raise ValueError("times and values must have equal length")
        if np.any(c < -1e-10) or np.any(c > 1 + 1e-10):
            raise ValueError("concurrence values must lie in [0, 1]")
        t.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", c)


def reduce_to_pair(rho_full, a: int, b: int) -> TwoQubitState:
    """Trace a single-excitation state down to sites (a, b).

    All other sites' populations and any decayed norm land in |gg><gg|, the
    unique completion consistent with the single-excitation restriction.
    """
    rm = rho_full.matrix if isinstance(rho_full, DensityMatrix) else np.asarray(rho_full, dtype=complex)
    return TwoQubitState(_pair_stack(rm[None], a, b)[0], (a, b))


def _pair_stack(rm: np.ndarray, a: int, b: int) -> np.ndarray:
    """reduce_to_pair along an (m, n, n) stack; the (m, 4, 4) result is not yet checked."""
    n = rm.shape[-1]
    if a == b:
        raise ValueError("pair sites must differ")
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"pair ({a},{b}) out of range for {n} sites")
    ia, ib = a - 1, b - 1
    out = np.zeros((rm.shape[0], 4, 4), dtype=complex)
    out[:, _EG, _EG] = rm[:, ia, ia]
    out[:, _GE, _GE] = rm[:, ib, ib]
    out[:, _EG, _GE] = rm[:, ia, ib]
    out[:, _GE, _EG] = rm[:, ib, ia]
    gg = 1.0 - rm[:, ia, ia].real - rm[:, ib, ib].real
    bad = np.flatnonzero(gg < -1e-10)
    if bad.size:
        raise ValueError(f"inconsistent state: pair populations sum to {1 - gg[bad[0]]:.6f} > 1")
    out[:, _GG, _GG] = np.maximum(gg, 0.0)
    return out


def _wootters_matrix(m: np.ndarray) -> np.ndarray:
    """R = m S m* S for each 4x4 matrix of m, with S = sigma_y (x) sigma_y."""
    # in the {gg, ge, eg, ee} basis column j of m S is column 3 - j of m, negated
    # for j = 0 and 3, and m* S is its conjugate (S is real)
    ms = m[..., [3, 2, 1, 0]] * [-1.0, 1.0, 1.0, -1.0]
    return ms @ ms.conj()


def _r_spectrum(r: np.ndarray) -> np.ndarray:
    """|Re| of the four eigenvalues of each R of a (k, 4, 4) stack.

    Where rows and columns 0 and 3 of R are exactly zero, as for every state
    _pair_stack builds (no ee weight, no gg coherence), the spectrum is
    {0, 0} and the two roots of the middle 2x2 block's characteristic
    polynomial: the root of larger modulus by the quadratic formula, the
    other as det / that root, so neither cancels.  Only the other members
    reach np.linalg.eigvals.
    """
    ev = np.zeros(r.shape[:-1], dtype=complex)
    b = r[:, 1:3, 1:3]
    tr = b[:, 0, 0] + b[:, 1, 1]
    det = b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
    s = np.sqrt(tr * tr / 4.0 - det)
    hi = tr / 2.0 + np.where((tr.conj() * s).real < 0.0, -s, s)
    ev[:, 0] = hi
    np.divide(det, hi, out=ev[:, 1], where=hi != 0.0)
    outer = np.any(r[:, [0, 3], :] != 0.0, axis=(1, 2)) | np.any(r[:, :, [0, 3]] != 0.0, axis=(1, 2))
    full = np.flatnonzero(outer)
    if full.size:
        ev[full] = np.linalg.eigvals(r[full])
    return np.abs(ev.real)


def _wootters(m: np.ndarray) -> np.ndarray:
    """max(0, l1 - l2 - l3 - l4) for each 4x4 matrix of m, shape (..., 4, 4),
    with l_i^2 the eigenvalues of R = m S m* S: those of a 2x2 block where R
    has one, np.linalg.eigvals' elsewhere (_r_spectrum)."""
    r = _wootters_matrix(m)
    ev = np.sort(_r_spectrum(r.reshape(-1, 4, 4)), axis=-1)[:, ::-1]
    # roundoff noise on zero eigenvalues would be amplified by the square root
    ev[ev < 1e-14 * np.maximum(ev[:, :1], 1e-300)] = 0.0
    lam = np.sqrt(ev)
    d = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    return np.where(d > 0.0, d, 0.0).reshape(m.shape[:-2])


def concurrence(state) -> float:
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4).

    For single-excitation reduced states (empty |ee> block) the fast path
    2 |rho_eg,ge| is computed as well and checked against the full formula.
    Where such a state has no gg coherence either, as every reduce_to_pair
    result, R's spectrum comes from one 2x2 block, not an eigensolve
    (_r_spectrum).
    """
    if not isinstance(state, TwoQubitState):
        state = TwoQubitState(state, (0, 0))  # runs the validity checks
    return float(_concurrences(state.matrix[None])[0])


def _concurrences(m: np.ndarray) -> np.ndarray:
    """concurrence of each member of a (k, 4, 4) stack that _two_qubit_stack checked.
    A fast path that disagrees with Wootters raises ValueError."""
    full = _wootters(m)
    ee_mass = np.abs(m[:, _EE, :]).max(axis=1) + np.abs(m[:, :, _EE]).max(axis=1)
    fast = 2.0 * np.abs(m[:, _EG, _GE])
    bad = np.flatnonzero((ee_mass < 1e-12) & (np.abs(fast - full) > 1e-8))
    if bad.size:
        raise ValueError(f"fast-path concurrence {fast[bad[0]]} disagrees with Wootters {full[bad[0]]}")
    return full


def analytic_concurrence(eps: float, v: float, t) -> float | np.ndarray:
    """Entanglement of sites 1 and 3 from a middle-site excitation in the
    degenerate three-site chain, without measurements:
    C(t) = (4 v^2 / (8 v^2 + eps^2)) (1 - cos(sqrt(8 v^2 + eps^2) t)),
    with eps = eps_2 - eps_1 = eps_2 - eps_3."""
    omega2 = 8.0 * v * v + eps * eps
    return (4.0 * v * v / omega2) * (1.0 - np.cos(np.sqrt(omega2) * np.asarray(t, dtype=float)))


def measured_concurrence(eps: float, v: float, tau: float, t) -> float | np.ndarray:
    """Concurrence under repeated middle-site measurement at interval tau:
    C_tau(t) = (1/2) {1 - [1 - 2 C(tau)]^(t/tau)}, exact at t = n tau.

    Off that grid it returns the real part of the principal power,
    (1/2) {1 - |1 - 2 C(tau)|^(t/tau) cos(pi t/tau)} when 1 - 2 C(tau) < 0:
    a smooth curve through the grid values, not the concurrence of the state
    between two measurements."""
    c_tau = float(analytic_concurrence(eps, v, tau))
    base = 1.0 - 2.0 * c_tau
    x = np.asarray(t, dtype=float) / tau
    return 0.5 * (1.0 - np.abs(base) ** x * (np.cos(np.pi * x) if base < 0.0 else 1.0))


def simulate_concurrence(model: LatticeModel, dynamics_spec, pair, times) -> ConcurrenceSeries:
    """Evolve |initial_site>, reduce to the pair, and score concurrence.

    dynamics_spec is "unitary", a MeasurementChannel, or a DephasingSpec of
    this model (an equal copy will do); a DephasingSpec of another model
    raises ValueError.
    """
    times = _time_grid(times)
    a, b = int(pair[0]), int(pair[1])
    rho0 = pure_site_state(model.n_sites, model.initial_site)
    if dynamics_spec == "unitary":
        psis = _propagators(model._h_eff, times)[:, :, model.initial_site - 1]
        states = psis[:, :, None] * psis.conj()[:, None, :]
    elif isinstance(dynamics_spec, MeasurementChannel):
        states = _measured_stack(model._h_eff, dynamics_spec, rho0, times)
    elif isinstance(dynamics_spec, DephasingSpec):
        if dynamics_spec.model.to_dict() != model.to_dict():
            raise ValueError("the DephasingSpec's model differs from the model whose state is evolved")
        states = _master_stack(dynamics_spec, rho0, times)
    else:
        raise ValueError(f"unknown dynamics spec {dynamics_spec!r}")
    values = _concurrences(_two_qubit_stack(_pair_stack(states, a, b)))
    return ConcurrenceSeries(times=times, values=np.clip(values, 0.0, 1.0), provenance="simulated")


def series_to_csv(series: ConcurrenceSeries, path) -> None:
    """Write a concurrence series as CSV: t,concurrence."""
    _write_csv(path, "t,concurrence", np.column_stack((series.times, series.values)))
