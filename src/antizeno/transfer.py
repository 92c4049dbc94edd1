"""Energy-transfer efficiency with and without repeated measurements.

The efficiency is eta = 2 kappa int p_trap(t) dt.  Under full-site channel
events the trapped probability accrues interval by interval, and the infinite
sum collapses to the geometric series w . (I - T)^-1 p(0), where w_j is the
per-interval trapped weight and T the transition matrix.  Periodic measurement
weights the interval [0, tau]; dephasing on all sites is the same channel at
Poisson-timed events, with weight exp(-r s) on [0, inf); and free evolution is
the Poisson case at r = 0, where T = 0.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .dynamics import _propagators, _write_csv, eig_system
from .model import LatticeModel

_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class EfficiencyResult:
    """eta plus the full trapped/dissipated/residual probability accounting."""

    eta: float
    trapped: float
    dissipated: float
    residual: float
    tau: float | None
    method: str  # "series" (periodic), "lyapunov" (no measurement) or "master" (dephasing)

    def __post_init__(self):
        if abs(self.eta - self.trapped) > 1e-12:
            raise ValueError("eta must equal the trapped probability")


@dataclass(frozen=True)
class TauScan:
    """Efficiency results over a strictly increasing tau grid."""

    taus: np.ndarray
    results: tuple
    model: LatticeModel

    def __post_init__(self):
        t = _checked_grid(self.taus)
        if len(self.results) != t.size:
            raise ValueError(f"{len(self.results)} results for {t.size} taus")
        object.__setattr__(self, "taus", t)

    @property
    def etas(self) -> np.ndarray:
        return np.array([r.eta for r in self.results])


class _Factors(NamedTuple):
    """The tau-independent factors of the measured series for one eigendecomposition.

    The (a, b) and (b, a) terms of A are complex conjugates, so the pairs run
    over a <= b only, m = n(n+1)/2 of them, and the off-diagonal ones count twice.
    """

    mjw: np.ndarray  # -i w
    abs_delta: np.ndarray  # (m,) |delta_ab|, delta_ab = w_a - conj w_b
    min_abs_delta: float
    mjdelta: np.ndarray  # (m,) -i delta_ab, and -i where delta_ab = 0
    jdelta: np.ndarray  # (m,) i delta_ab, and i where delta_ab = 0
    p: np.ndarray  # (n, m) complex, C order: P[i,(a,b)] = V[i,a] conj V[i,b]
    q: np.ndarray  # (2m, n) real: rows Re and -Im of Q[(a,b),j] = (2 - [a = b]) Vinv[a,j] conj Vinv[b,j]


_MEMO = threading.local()  # per thread: the eig_system result last used, and its _Factors


def _series_factors(eig) -> _Factors:
    """The factors for an eig_system result (w, V, Vinv, cond) whose Vinv is not None.

    Memoized per thread on that result's identity (eig_system returns the same
    read-only tuple for an equal H), one entry each: a scan runs one H at a
    time.  P and Q hold n^2 (n+1)/2 complex values each, 0.54 MB per thread
    at n = 32; the previous entry is dropped before a new one is built.
    """
    last = getattr(_MEMO, "last", None)
    if last is not None and last[0] is eig:
        return last[1]
    _MEMO.last = None
    w, v, vinv, _ = eig
    n = w.shape[0]
    ia, ib = np.triu_indices(n)
    delta = w[ia] - w[ib].conj()
    abs_delta = np.abs(delta)
    safe = np.where(abs_delta == 0, 1.0, delta)
    q = np.where(ia == ib, 1.0, 2.0)[:, None] * vinv[ia] * vinv[ib].conj()
    factors = _Factors(
        mjw=-1j * w,
        abs_delta=abs_delta,
        min_abs_delta=float(abs_delta.min()),
        mjdelta=-1j * safe,
        jdelta=1j * safe,
        p=np.ascontiguousarray(v[:, ia] * v[:, ib].conj()),
        q=np.stack([q.real, -q.imag], axis=1).reshape(-1, n),
    )
    _MEMO.last = (eig, factors)
    return factors


def _interval_integrals_eigen(f: _Factors, tau):
    """A[i,j] = int_0^tau |<i|U(s)|j>|^2 ds from an eigendecomposition's factors.

    With E_ab = int_0^tau exp(-i delta_ab s) ds, A = Re[(P . E) Q] is one real
    (n x 2m)(2m x n) product: P . E viewed as reals interleaves its real and
    imaginary parts, as the rows of q do.  E_ab = tau where |delta_ab| tau < 1e-10.
    """
    e = (1.0 - np.exp(f.mjdelta * tau)) / f.jdelta
    if f.min_abs_delta * tau < 1e-10:
        e = np.where(f.abs_delta * tau < 1e-10, tau, e)
    return (f.p * e).view(float) @ f.q


def _interval_integrals_quadrature(h, tau, panels=4, nodes=16):
    """Composite Gauss-Legendre fallback for the per-interval integrals, on one propagator stack."""
    x, wts = np.polynomial.legendre.leggauss(nodes)
    width = tau / panels
    s = (np.arange(panels)[:, None] * width + (x + 1) * width / 2).ravel()
    return np.tensordot(np.tile(wts, panels) * (width / 2), np.abs(_propagators(h, s)) ** 2, axes=1)


def _require_lossy(model):
    if not (model.decay_rate > 0 or np.any(model.trap_rates > 0)):
        raise ValueError("efficiency undefined: model has no trapping or decay channel")


def _poisson_integrals(model, rate):
    """A[i,j] = int_0^inf exp(-rate s) |<i|U(s)|j>|^2 ds for Poisson-timed events.

    Column j is the diagonal of the X that solves
    (-i H_eff - rate/2) X + X (-i H_eff - rate/2)^dag = -E_j: with one complex
    Schur form Z S Z^dag for all columns, S Y + Y S^dag = -Z^dag E_j Z is one
    triangular solve and diag X = diag(Z Y Z^dag).  At rate 0, T = 0, so only
    the initial site's column is solved.
    """
    n = model.n_sites
    h = model._h_eff.matrix
    s, z = scipy.linalg.schur(-1j * h - 0.5 * rate * np.eye(n), output="complex")
    a = np.zeros((n, n))
    for j in range(n) if rate > 0 else [model.initial_site - 1]:
        y, scale, _ = scipy.linalg.lapack.ztrsyl(s, s, -np.outer(z[j].conj(), z[j]), tranb="C")
        a[:, j] = np.real(((z @ y) * z.conj()).sum(axis=1)) / scale
    return a


def _series_result(model, t, a, tau, method) -> EfficiencyResult:
    """eta = w . (I - T)^-1 p(0) from the transition matrix T and the interval
    integrals A, which give the per-start-site trapped and dissipated weights."""
    # rho(T) <= ||T||_1, the largest column sum of |T|: each column of T plus
    # its per-interval loss is 1, so eigvals is needed only where some site
    # loses (almost) nothing within an interval; a NaN also takes that path
    if not np.abs(t).sum(axis=0).max() < 1 - 1e-12:
        radius = float(np.max(np.abs(np.linalg.eigvals(t))))
        if radius >= 1 - 1e-12:
            raise ValueError(f"series non-convergent: spectral radius {radius}")
    trapped_w, dissipated_w = 2.0 * model.trap_rates @ a, 2.0 * model.decay_rate * a.sum(axis=0)
    # gesv itself: np.linalg.solve's wrapper costs several times the solve at n = 2
    eye = np.eye(model.n_sites)
    _, _, x, info = scipy.linalg.lapack.dgesv(eye - t, eye[model.initial_site - 1])
    if info:
        raise np.linalg.LinAlgError("Singular matrix")
    trapped = float(trapped_w @ x)
    dissipated = float(dissipated_w @ x)
    return EfficiencyResult(
        eta=trapped, trapped=trapped, dissipated=dissipated, residual=0.0, tau=tau, method=method
    )


def _poisson_efficiency(model, rate, method) -> EfficiencyResult:
    """The series with channel events at Poisson rate (none at rate 0): T = rate A.

    The system empties completely, so residual is 0 and the sum rule
    trapped + dissipated = 1 can fail only if some mode never decays.  Such a
    mode raises ValueError: at rate > 0 through the spectral radius of T, at
    rate 0 through the sum rule if the initial state populates it.
    """
    _require_lossy(model)
    a = _poisson_integrals(model, rate)
    res = _series_result(model, rate * a, a, 1.0 / rate if rate > 0 else None, method)
    if not abs(res.trapped + res.dissipated - 1.0) <= 1e-8:
        raise ValueError(f"non-decaying mode: trapped + dissipated = {res.trapped + res.dissipated:.12g}")
    return res


def efficiency_no_measurement(model: LatticeModel) -> EfficiencyResult:
    """eta = 2 kappa int_0^inf p_trap(t) dt under free (non-Hermitian) evolution.

    X = int_0^inf rho(t) dt solves the Lyapunov equation
    (-i H_eff) X + X (-i H_eff)^dag = -rho(0), and eta = 2 kappa . diag(X):
    the renewal series with no channel events.
    """
    return _poisson_efficiency(model, 0.0, "lyapunov")


def efficiency_measured(model: LatticeModel, tau: float) -> EfficiencyResult:
    """Efficiency under repeated full-site measurements with interval tau,
    summed in closed form as w . (I - T)^-1 p(0).

    H_eff is built once per model, and the tau-independent factors once per
    eigendecomposition (see _series_factors), so a tau scan pays per tau only
    for U = V exp(-i w tau) Vinv, E(tau), one matrix product and one solve.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError("tau must be positive and finite")
    _require_lossy(model)
    h = model._h_eff.matrix
    eig = eig_system(h)
    _, v, vinv, _ = eig
    if vinv is not None:
        f = _series_factors(eig)
        u = (v * np.exp(f.mjw * tau)) @ vinv
        a = _interval_integrals_eigen(f, tau)
    else:
        u = _propagators(h, [tau])[0]
        a = _interval_integrals_quadrature(h, tau)
    return _series_result(model, np.abs(u) ** 2, a, float(tau), "series")


def _checked_grid(tau_grid) -> np.ndarray:
    """A read-only float copy of a nonempty, 1-D, positive, finite and strictly
    increasing tau grid; raises ValueError for anything else."""
    taus = np.array(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("tau grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(taus) & (taus > 0)):
        raise ValueError("tau grid must be positive and finite")
    if np.any(np.diff(taus) <= 0):
        raise ValueError("tau grid must be strictly increasing")
    taus.setflags(write=False)
    return taus


def tau_scan(model: LatticeModel, tau_grid) -> TauScan:
    """efficiency_measured over a strictly increasing positive tau grid,
    checked before the first solve."""
    taus = _checked_grid(tau_grid)
    results = tuple(efficiency_measured(model, t) for t in taus)
    return TauScan(taus=taus, results=results, model=model)


def _model_disorder(model: LatticeModel) -> float:
    eps = float(model.site_energies[0] - model.site_energies[-1])
    if eps <= 0:
        eps = float(np.abs(model.site_energies[:, None] - model.site_energies[None, :]).max())
    return eps


def optimal_tau(model: LatticeModel, bracket=None) -> dict:
    """Golden-section maximization of efficiency_measured over tau.

    Returns {"tau": tau*, "eta": eta*, "result": EfficiencyResult}.
    """
    eps = _model_disorder(model)
    if eps <= 0:
        raise ValueError("cannot pick a default bracket for a resonant model")
    if bracket is None:
        bracket = (0.1 / eps, 10.0 / eps)
    a, b = float(bracket[0]), float(bracket[1])
    if not (0 < a < b and math.isfinite(b)):
        raise ValueError("bracket must be positive and finite with a < b")
    tol = 1e-3 / eps
    eta = lambda t: efficiency_measured(model, t).eta
    eta_a, eta_b = eta(a), eta(b)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    eta_c, eta_d = eta(c), eta(d)
    while b - a > tol:
        if eta_c > eta_d:
            b, d, eta_d = d, c, eta_c
            c = b - _GOLDEN * (b - a)
            eta_c = eta(c)
        else:
            a, c, eta_c = c, d, eta_d
            d = a + _GOLDEN * (b - a)
            eta_d = eta(d)
    t_star = (a + b) / 2
    res = efficiency_measured(model, t_star)
    if res.eta <= max(eta_a, eta_b) - 1e-9:
        raise ValueError("no interior maximum in bracket")
    return {"tau": t_star, "eta": res.eta, "result": res}


def _dimer_parameters(model: LatticeModel) -> tuple[float, float, float]:
    """(kappa, eps, v) of the initial-trap pair that the dimer asymptotics read."""
    kappa = float(model.trap_rates.max())
    if kappa <= 0:
        raise ValueError("formula requires a trapping site")
    trap = int(np.argmax(model.trap_rates))
    v = float(model.couplings[model.initial_site - 1, trap])
    if v == 0:
        raise ValueError("formula requires direct initial-trap coupling")
    return kappa, _model_disorder(model), v


def asymptotic_efficiency_max(model: LatticeModel) -> float:
    """Closed-form maximal efficiency 1 - 2 Gamma (1/kappa + pi eps / (4 v^2)),
    valid in the two-site large-disorder regime eps >> v ~ kappa."""
    kappa, eps, v = _dimer_parameters(model)
    if eps / abs(v) < 5:
        warnings.warn("eps/v < 5: outside the large-disorder regime", UserWarning)
    return 1.0 - 2.0 * model.decay_rate * (1.0 / kappa + math.pi * eps / (4.0 * v * v))


def asymptotic_deficit_no_measurement(model: LatticeModel) -> float:
    """Order-of-magnitude deficit 1 - eta(tau -> inf) ~ (Gamma/kappa)(eps/v)^2."""
    kappa, eps, v = _dimer_parameters(model)
    return (model.decay_rate / kappa) * (eps / v) ** 2


def scan_to_csv(scan: TauScan, path) -> None:
    """Write a tau scan as CSV: tau,eps_tau,eta,trapped,dissipated,residual."""
    results = [(r.eta, r.trapped, r.dissipated, r.residual) for r in scan.results]
    rows = np.column_stack((scan.taus, _model_disorder(scan.model) * scan.taus, np.reshape(results, (-1, 4))))
    _write_csv(path, "tau,eps_tau,eta,trapped,dissipated,residual", rows)
