"""Reduced two-site states, Wootters concurrence, and closed-form concurrence
under repeated measurement of the middle site of a degenerate three-site chain.

Every pair state of a single-excitation state has no |ee> weight and no |gg>
coherence.  Wootters' R = rho S rho* S (S = sigma_y (x) sigma_y) of such a
state has the spectrum {(sqrt(p_a p_b) +- |rho_ab|)^2, 0, 0}, so its
concurrence is C = 2 min(|rho_ab|, sqrt(p_a p_b)) in closed form
(_pair_concurrence); only other two-qubit states reach Wootters' general
form (_wootters)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DensityMatrix,
    _first_negative_eig,
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
        """Checks: 4x4, Hermitian to 1e-10, trace 1 to 1e-10 and eigenvalues
        >= -1e-10 (a Cholesky, as in density_stack)."""
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("two-qubit state must be 4x4")
        if np.any(np.abs(m - m.conj().T) > 1e-10):
            raise ValueError("two-qubit state not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError("two-qubit state trace must be 1")
        if _first_negative_eig(m[None]) is not None:
            raise ValueError("two-qubit state not positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))


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
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(c))):
            raise ValueError("times and values must be finite")
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
    """reduce_to_pair along an (m, n, n) stack, after checking the pair and
    p_a + p_b <= 1; the (m, 4, 4) result is not checked as a TwoQubitState."""
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


def _wootters(m: np.ndarray) -> np.ndarray:
    """max(0, l1 - l2 - l3 - l4) for each 4x4 matrix of m, shape (..., 4, 4).

    The l_i, the square roots of the eigenvalues of R = m S m* S, are the
    singular values of sqrt(m) S sqrt(m)*, since sqrt(m) S m* S sqrt(m) is
    that matrix times its adjoint; and of sqrt(m) S sqrt(m)* S, since S is
    orthogonal.  So they come out nonnegative from one batched SVD, with no
    cutoff on small eigenvalues of R; sqrt(m) clips roundoff-negative
    eigenvalues of m to 0."""
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    lam = np.linalg.svd(_wootters_matrix(root), compute_uv=False)
    return np.maximum(lam[..., 0] - lam[..., 1:].sum(axis=-1), 0.0)


def _pair_concurrence(m: np.ndarray) -> np.ndarray:
    """2 min(|m_eg,ge|, sqrt(m_eg,eg m_ge,ge)) along a (..., 4, 4) stack: Wootters'
    l1 - l2 where R's spectrum is {(sqrt(p_a p_b) +- |rho_ab|)^2, 0, 0}, that is
    for states with no ee weight and no gg coherence."""
    pp = m[..., _EG, _EG].real * m[..., _GE, _GE].real
    return 2.0 * np.minimum(np.abs(m[..., _EG, _GE]), np.sqrt(np.maximum(pp, 0.0)))


def concurrence(state) -> float:
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4).

    A state with no |ee> weight and no |gg> coherence, as every reduce_to_pair
    result, takes the closed form 2 min(|rho_eg,ge|, sqrt(p_eg p_ge))
    (_pair_concurrence); only other states reach _wootters, one SVD.
    """
    if not isinstance(state, TwoQubitState):
        state = TwoQubitState(state, (0, 0))  # runs the validity checks
    m = state.matrix
    outer = m[_EE].any() or m[:, _EE].any() or m[_GG, 1:3].any() or m[1:3, _GG].any()
    return float(_wootters(m) if outer else _pair_concurrence(m))


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

    dynamics_spec is "unitary" (dephasing at gamma = 0), a MeasurementChannel,
    or a DephasingSpec of this model (an equal copy will do); a DephasingSpec
    of another model raises ValueError.  The concurrence is the closed form of
    concurrence(), read off the state stack that the dynamics already checked.
    """
    times = _time_grid(times)
    rho0 = pure_site_state(model.n_sites, model.initial_site)
    if dynamics_spec == "unitary":
        dynamics_spec = DephasingSpec(model, 0.0, frozenset())
    if isinstance(dynamics_spec, MeasurementChannel):
        states = _measured_stack(model._h_eff, dynamics_spec, rho0, times)
    elif isinstance(dynamics_spec, DephasingSpec):
        if dynamics_spec.model != model:
            raise ValueError("the DephasingSpec's model differs from the model whose state is evolved")
        states = _master_stack(dynamics_spec, rho0, times)
    else:
        raise ValueError(f"unknown dynamics spec {dynamics_spec!r}")
    values = _pair_concurrence(_pair_stack(states, int(pair[0]), int(pair[1])))
    return ConcurrenceSeries(times=times, values=np.clip(values, 0.0, 1.0), provenance="simulated")


def series_to_csv(series: ConcurrenceSeries, path) -> None:
    """Write a concurrence series as CSV: t,concurrence."""
    _write_csv(path, "t,concurrence", np.column_stack((series.times, series.values)))
