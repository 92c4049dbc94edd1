"""Energy-transfer efficiency with and without repeated measurements.

The efficiency is eta = 2 kappa int p_trap(t) dt.  Under full-site channel
events the trapped probability accrues interval by interval, and the infinite
sum collapses to the geometric series w . (I - T)^-1 p(0), where w_j is the
per-interval trapped weight and T the transition matrix.  Periodic measurement
weights the interval [0, tau]; dephasing on all sites is the same channel at
Poisson-timed events, with weight exp(-r s) on [0, inf); and free evolution is
the Poisson case at r = 0, where T = 0.  Both laws share one eigen-sum kernel
on H_eff = V diag(w) V^-1 (_interval_integrals_eigen) and one exact fallback
where V is ill-conditioned or a mode does not decay, a Gauss-Legendre panel
doubled on numpy alone (_interval_integrals_doubling); only _gesv, the per-tau
solve of the measured series, loads scipy.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import _EIGEN_SUM_COND, _expm, _positive_finite, _write_csv, eig_system
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
    """The factors of the eigen-sum kernel for one model and its eigendecomposition.

    The (a, b) and (b, a) terms of A are complex conjugates, so the pairs run over a <= b only (m = n(n+1)/2,
    off-diagonal ones twice).  An interval law enters only through its weights E_ab: the rows L P give the two
    loss-weight rows L A in one (2 x 2m)(2m x n) product, the rows P all of A in one (n x 2m)(2m x n) product.
    """

    mjw: np.ndarray  # -i w
    abs_delta: np.ndarray  # (m,) |delta_ab|, delta_ab = w_a - conj w_b
    min_abs_delta: float
    mjdelta: np.ndarray  # (m,) -i delta_ab, and -i where delta_ab = 0
    q: np.ndarray  # (2m, n) real: rows Re and -Im of Q[(a,b),j] = (2 - [a = b]) Vinv[a,j] conj Vinv[b,j]
    p: np.ndarray  # (n, m) complex, C order: P[i,(a,b)] = V[i,a] conj V[i,b]
    lp: np.ndarray  # (2, m) complex: L P, the loss rows L of _model_terms times P
    eye: np.ndarray  # (n, n) identity
    start: np.ndarray  # (n,) the initial site's column of it, p(0)


_MEMO = threading.local()  # per thread: the model and eig_system result last used, and their _Factors


def _model_terms(model):
    """(L, I, p(0)): the loss rows L = [2 kappa; 2 Gamma 1] (L A: trapped and dissipated weights), I and p(0)."""
    n, eye = model.n_sites, np.eye(model.n_sites)
    return np.array([2.0 * model.trap_rates, [2.0 * model.decay_rate] * n]), eye, eye[model.initial_site - 1]


def _series_factors(model, eig) -> _Factors:
    """The factors for a model and its eig_system result (w, V, Vinv, cond) whose Vinv is not None.

    Memoized per thread on the identities of both (two models can share an
    equal H, for which eig_system returns the same read-only tuple, and differ
    in L or p(0)), one entry: a scan runs one model at a time.  P and Q each
    hold n^2 (n+1)/2 complex values, together 0.54 MB per thread at n = 32.
    """
    last = getattr(_MEMO, "last", None)
    if last is not None and last[0] is model and last[1] is eig:
        return last[2]
    _MEMO.last = None
    w, v, vinv, _ = eig
    n = w.shape[0]
    ia, ib = np.triu_indices(n)
    delta = w[ia] - w[ib].conj()
    abs_delta = np.abs(delta)
    q = np.where(ia == ib, 1.0, 2.0)[:, None] * vinv[ia] * vinv[ib].conj()
    p = np.multiply(v[:, ia], v[:, ib].conj(), order="C")
    l, eye, start = _model_terms(model)
    factors = _Factors(
        mjw=-1j * w,
        abs_delta=abs_delta,
        min_abs_delta=float(abs_delta.min()),
        mjdelta=-1j * np.where(abs_delta == 0, 1.0, delta),
        q=np.stack([q.real, -q.imag], axis=1).reshape(-1, n),
        p=p,
        lp=l @ p,
        eye=eye,
        start=start,
    )
    _MEMO.last = (model, eig, factors)
    return factors


def _interval_integrals_eigen(rows, e, q):
    """R A for the (k, m) rows R P of a real (k, n) R and the rows q of
    _Factors or some of its columns, where A[i,j] = int g(s) |<i|U(s)|j>|^2 ds
    under an interval law g(s) whose weights are
    E_ab = int g(s) exp(-i delta_ab s) ds: rows = P gives A itself and
    rows = L P the weights L A.

    R A = Re[((R P) . E) Q] is one real (k x 2m)(2m x n) product: (R P) . E
    viewed as reals interleaves its real and imaginary parts, as the rows of q
    do.  Two laws call it: periodic measurement (_periodic_law) and
    Poisson-timed events (_poisson_integrals).
    """
    return (rows * e).view(float) @ q


def _periodic_law(f: _Factors, tau):
    """E_ab = int_0^tau exp(-i delta_ab s) ds = (exp(-i delta_ab tau) - 1) / (-i delta_ab),
    and tau where |delta_ab| tau < 1e-10."""
    e = (np.exp(f.mjdelta * tau) - 1.0) / f.mjdelta
    if f.min_abs_delta * tau < 1e-10:
        e = np.where(f.abs_delta * tau < 1e-10, tau, e)
    return e


def _require_lossy(model):
    if not (model.decay_rate > 0 or np.any(model.trap_rates > 0)):
        raise ValueError("efficiency undefined: model has no trapping or decay channel")


def _poisson_integrals(model, rate):
    """A[i,j] = int_0^inf exp(-rate s) |<i|U(s)|j>|^2 ds for Poisson-timed events.

    On the eigenbasis the interval law has E_ab = 1 / (rate - mjdelta_ab), and
    A = Re[(P . E) Q] (_interval_integrals_eigen): all of A at rate > 0, only
    the initial site's column at rate 0, where T = 0.  _interval_integrals_doubling
    takes cond(V) at or past _EIGEN_SUM_COND, and a pair that does not decay,
    -(Im w_a + Im w_b) <= 0 (a dark state, an isolated lossless site), read to
    within the eigenvalues' roundoff delta = n cond(V) eps ||H_eff||_1.  It runs
    at most to ln(1/eps) / (2 delta), where a pair decaying at 2 delta has
    fallen below eps: a slower mode stays undecayed, and the series raises.
    """
    h = model._h_eff.matrix
    w, _, _, cond = eig = eig_system(h)
    n = model.n_sites
    j = slice(None) if rate > 0 else slice(model.initial_site - 1, model.initial_site)
    a = np.zeros((n, n))
    delta = n * cond * np.finfo(float).eps * np.linalg.norm(h, 1)
    if cond < _EIGEN_SUM_COND and w.imag.max() < -delta:
        f = _series_factors(model, eig)
        a[:, j] = _interval_integrals_eigen(f.p, 1.0 / (rate - f.mjdelta), f.q[:, j])
    else:
        a[:, j] = _interval_integrals_doubling(h, j, -math.log(np.finfo(float).eps) / (2 * delta), rate, stop=True)[0]
    return a


def _interval_integrals_doubling(h, cols, tau, rate=0.0, stop=False):
    """(A[:, cols], F(tau)), A[i,j] = int_0^tau exp(-rate s) |<i|U(s)|j>|^2 ds and F(t) = exp(M t),
    M = -i H_eff - rate/2: exact to roundoff for any H_eff.

    Column j is the diagonal of Q_j(tau) = int_0^tau F(s) |j><j| F(s)^dag ds: a 16-node
    Gauss-Legendre rule on one stacked _expm over t0 = tau / 2^k, ||M t0||_1 <= 4, then k doublings
    Q(2t) = Q(t) + F(t) Q(t) F(t)^dag, F(2t) = F(t)^2, all columns in two products.  The rule is
    off by t0^33 (16!)^4 / (33 (32!)^3) sup ||(M . + . M^dag)^32 F |j><j| F^dag||_2 <= 2.5e-26 t0
    (||F||_2 <= 1; ||M||_2 <= ||M||_1, H_eff is symmetric), far below u tr Q_j(t0) >= u t0 / 8.
    With stop, tau is a horizon: it returns once a doubling adds under u of each column's trace,
    which bounds every entry of that positive semidefinite increment.
    """
    n = h.shape[0]
    m = -1j * h - 0.5 * rate * np.eye(n)
    x, wts = np.polynomial.legendre.leggauss(16)  # numpy.polynomial loads on first use
    k = max(0, math.frexp(np.linalg.norm(m, 1) * tau / 4)[1])
    s = np.append(x + 1, 2.0) * (tau / 2.0 ** (k + 1))  # the nodes on [0, t0], then t0 = tau / 2^k
    g = _expm(m * s[:, None, None])
    y = g[:-1, :, cols] * np.sqrt(wts * (s[-1] / 2))[:, None, None]
    q, f = np.einsum("sij,slj->ijl", y, y.conj(), optimize=True), g[-1]  # q[i,j,l] = Q_j[i,l]
    for _ in range(k):
        dq = ((f @ q.reshape(n, -1)).reshape(-1, n) @ f.conj().T).reshape(q.shape)
        q, f = q + dq, f @ f
        if stop and np.all(np.einsum("iji->j", dq).real <= 2.0**-53 * np.einsum("iji->j", q).real):
            break
    return np.einsum("iji->ij", q).real, f


def _gesv(a, b):
    """a^-1 b by LAPACK's dgesv itself.  The Poisson series solves once per
    model, with np.linalg.solve; the measured series solves once per tau,
    where np.linalg.solve's wrapper adds 4.6 us (+20% of a tau at n = 2), so
    it keeps scipy's dgesv until the tau scan is batched (ROADMAP items 2, 12)."""
    import scipy.linalg

    _, _, x, info = scipy.linalg.lapack.dgesv(a, b)
    if info:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


def _series_result(t, weights, eye, start, tau, method, solve=_gesv) -> EfficiencyResult:
    """eta = w . (I - T)^-1 p(0) from the transition matrix T and the (2, n)
    per-start-site trapped and dissipated weights L A, whose first row is w."""
    # rho(T) <= ||T||_1, the largest column sum of |T|: each column of T plus
    # its per-interval loss is 1, so eigvals is needed only where some site
    # loses (almost) nothing within an interval; a NaN also takes that path
    if not np.abs(t).sum(axis=0).max() < 1 - 1e-12:
        radius = float(np.max(np.abs(np.linalg.eigvals(t))))
        if radius >= 1 - 1e-12:
            raise ValueError(f"series non-convergent: spectral radius {radius}")
    trapped, dissipated = (weights @ solve(eye - t, start)).tolist()
    return EfficiencyResult(eta=trapped, trapped=trapped, dissipated=dissipated, residual=0.0, tau=tau, method=method)


def _poisson_efficiency(model, rate, method) -> EfficiencyResult:
    """The series with channel events at Poisson rate (none at rate 0): T = rate A,
    with A from _poisson_integrals and one np.linalg.solve, on numpy alone.

    The system empties completely, so residual is 0 and the sum rule
    trapped + dissipated = 1 can fail only if some mode never decays.  Such a
    mode takes the doubling and raises ValueError: at rate > 0 through the
    spectral radius of T, at rate 0 through the sum rule if the initial state
    populates it.
    """
    _require_lossy(model)
    a = _poisson_integrals(model, rate)
    l, eye, start = _model_terms(model)
    res = _series_result(rate * a, l @ a, eye, start, 1.0 / rate if rate > 0 else None, method, np.linalg.solve)
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

    H_eff is built once per model, and the tau-independent factors once per model and
    eigendecomposition (_series_factors): a tau costs T = |V exp(-i w tau) Vinv|^2, E(tau),
    one (2 x 2m)(2m x n) product for the two weight rows (never A itself) and one solve.
    """
    tau = _positive_finite(tau)
    _require_lossy(model)
    h = model._h_eff.matrix
    _, v, vinv, _ = eig = eig_system(h)
    if vinv is not None:
        f = _series_factors(model, eig)
        u = (v * np.exp(f.mjw * tau)) @ vinv
        weights, eye, start = _interval_integrals_eigen(f.lp, _periodic_law(f, tau), f.q), f.eye, f.start
    else:
        l, eye, start = _model_terms(model)
        a, u = _interval_integrals_doubling(h, slice(None), tau)
        weights = l @ a
    return _series_result(np.abs(u) ** 2, weights, eye, start, tau, "series")


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
    if bracket is None:
        if eps <= 0:
            raise ValueError("cannot pick a default bracket for a resonant model")
        bracket = (0.1 / eps, 10.0 / eps)
    a, b = float(bracket[0]), float(bracket[1])
    if not (0 < a < b and math.isfinite(b)):
        raise ValueError("bracket must be positive and finite with a < b")
    # 1e-3/eps is 1e-4 of the default bracket's upper end 10/eps; at eps = 0, of the given one
    tol = 1e-3 / eps if eps > 0 else 1e-4 * b
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
