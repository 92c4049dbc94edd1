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
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dynamics import eig_system
from .model import LatticeModel, effective_hamiltonian

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
        t = np.array(self.taus, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("tau grid must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "taus", t)

    @property
    def etas(self) -> np.ndarray:
        return np.array([r.eta for r in self.results])


def _interval_integrals_eigen(w, v, vinv, tau):
    """A[i,j] = int_0^tau |<i|U(s)|j>|^2 ds from the eigendecomposition.

    With E_ab = int_0^tau exp(-i (w_a - conj w_b) s) ds, A = Re[(P . vec E) Q]
    is one (n x n^2)(n^2 x n) product, where P[i,(a,b)] = V[i,a] conj V[i,b]
    and Q[(a,b),j] = Vinv[a,j] conj Vinv[b,j].
    """
    n = w.shape[0]
    delta = w[:, None] - w.conj()[None, :]
    small = np.abs(delta) * tau < 1e-10
    safe = np.where(small, 1.0, delta)
    e = np.where(small, tau, (1.0 - np.exp(-1j * safe * tau)) / (1j * safe))
    p = (v[:, :, None] * v.conj()[:, None, :]).reshape(n, n * n)
    q = (vinv[:, None, :] * vinv.conj()[None, :, :]).reshape(n * n, n)
    return np.real((p * e.reshape(-1)) @ q)


def _interval_integrals_quadrature(h, tau, panels=4, nodes=16):
    """Composite Gauss-Legendre fallback for the per-interval integrals."""
    x, wts = np.polynomial.legendre.leggauss(nodes)
    n = h.shape[0]
    acc = np.zeros((n, n))
    width = tau / panels
    for p in range(panels):
        a = p * width
        s = a + (x + 1) * width / 2
        for si, wi in zip(s, wts):
            u = scipy.linalg.expm(-1j * h * si)
            acc += wi * (width / 2) * np.abs(u) ** 2
    return acc


def _require_lossy(model):
    if not (np.any(model.trap_rates > 0) or model.decay_rate > 0):
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
    h = effective_hamiltonian(model).matrix
    s, z = scipy.linalg.schur(-1j * h - 0.5 * rate * np.eye(n), output="complex")
    a = np.zeros((n, n))
    for j in range(n) if rate > 0 else [model.initial_site - 1]:
        y, scale, _ = scipy.linalg.lapack.ztrsyl(s, s, -np.outer(z[j].conj(), z[j]), tranb="C")
        a[:, j] = np.real(((z @ y) * z.conj()).sum(axis=1)) / scale
    return a


def _series_result(model, t, a, tau, method) -> EfficiencyResult:
    """eta = w . (I - T)^-1 p(0) from the transition matrix T and the interval
    integrals A, which give the per-start-site trapped and dissipated weights."""
    radius = float(np.max(np.abs(np.linalg.eigvals(t))))
    if radius >= 1 - 1e-12:
        raise ValueError(f"series non-convergent: spectral radius {radius}")
    trapped_w, dissipated_w = 2.0 * model.trap_rates @ a, 2.0 * model.decay_rate * a.sum(axis=0)
    n = model.n_sites
    x = np.linalg.solve(np.eye(n) - t, np.eye(n)[model.initial_site - 1])
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
    summed in closed form as w . (I - T)^-1 p(0)."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError("tau must be positive and finite")
    _require_lossy(model)
    h = effective_hamiltonian(model).matrix
    w, v, vinv, _ = eig_system(h)
    if vinv is not None:
        u = (v * np.exp(-1j * w * tau)) @ vinv
        a = _interval_integrals_eigen(w, v, vinv, tau)
    else:
        u = scipy.linalg.expm(-1j * h * tau)
        a = _interval_integrals_quadrature(h, tau)
    return _series_result(model, np.abs(u) ** 2, a, float(tau), "series")


def tau_scan(model: LatticeModel, tau_grid) -> TauScan:
    """efficiency_measured over a sorted positive tau grid."""
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("tau grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(taus) & (taus > 0)):
        raise ValueError("tau grid must be positive and finite")
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
    eps = _model_disorder(scan.model)
    with open(path, "w", newline="") as f:
        f.write("tau,eps_tau,eta,trapped,dissipated,residual\n")
        for t, r in zip(scan.taus, scan.results):
            cells = [t, eps * t, r.eta, r.trapped, r.dissipated, r.residual]
            f.write(",".join(f"{x:.12g}" for x in cells) + "\n")
