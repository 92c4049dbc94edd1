import warnings

import numpy as np
import pytest

from antizeno import (
    asymptotic_deficit_no_measurement,
    asymptotic_efficiency_max,
    build_chain,
    efficiency_measured,
    efficiency_no_measurement,
    optimal_tau,
    tau_scan,
)
from antizeno.dynamics import eig_system
from antizeno.model import effective_hamiltonian
from antizeno.transfer import _interval_integrals_eigen, _interval_integrals_quadrature, scan_to_csv


def fig2_model(eps):
    return build_chain(2, [float(eps), 0.0], v=1.0, trap_rate=0.5, decay_rate=0.001)


def test_no_measurement_basic(two_site_disordered):
    r = efficiency_no_measurement(two_site_disordered)
    assert 0.0 < r.eta < 1.0
    assert r.eta == r.trapped
    assert r.tau is None
    assert abs(r.trapped + r.dissipated + r.residual - 1.0) < 1e-6


def test_no_measurement_v_zero():
    m = build_chain(2, [10.0, 0.0], v=0.0, trap_rate=0.5, decay_rate=0.001)
    assert efficiency_no_measurement(m).eta == pytest.approx(0.0, abs=1e-12)


def test_no_measurement_no_decay_traps_everything():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.0)
    r = efficiency_no_measurement(m)
    assert r.eta == pytest.approx(1.0, abs=1e-9)


def test_no_measurement_requires_loss_channel():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    with pytest.raises(ValueError):
        efficiency_no_measurement(m)


def test_measured_peak(two_site_disordered):
    r = efficiency_measured(two_site_disordered, np.pi / 10.0)
    assert abs(r.eta - 0.98) < 0.01


def test_measured_zeno_suppression(two_site_disordered):
    assert efficiency_measured(two_site_disordered, 1e-3 / 10.0).eta < 0.05


def test_measured_rejects_bad_tau(two_site_disordered):
    with pytest.raises(ValueError):
        efficiency_measured(two_site_disordered, 0.0)


@pytest.mark.parametrize("tau", [np.nan, np.inf])
def test_measured_rejects_non_finite_tau(two_site_disordered, tau):
    # NaN used to raise LinAlgError, inf to warn and return a result with tau = inf
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        efficiency_measured(two_site_disordered, tau)


def reference_interval_integrals(w, v, vinv, tau):
    """The three-operand einsum form of _interval_integrals_eigen."""
    c = v.T[:, :, None] * vinv[:, None, :]  # c[a, i, j] = V[i,a] Vinv[a,j]
    delta = w[:, None] - w.conj()[None, :]
    small = np.abs(delta) * tau < 1e-10
    safe = np.where(small, 1.0, delta)
    e = np.where(small, tau, (1.0 - np.exp(-1j * safe * tau)) / (1j * safe))
    return np.real(np.einsum("aij,bij,ab->ij", c, c.conj(), e))


@pytest.mark.parametrize("n", [2, 8, 32])
@pytest.mark.parametrize("lossless", [False, True])
def test_interval_integrals_equal_the_einsum_and_quadrature_forms(n, lossless):
    # The product form sums the same n^2 terms per entry as the einsum, in
    # another order: with O(1) terms and entries at most tau = 2 the roundoff
    # is a few 1e-15 (3.8e-15 at most here).  The 4 x 16-node Gauss-Legendre
    # rule resolves the frequencies |w_a - w_b| <= 11.5 of these chains far
    # below 1e-10 (2.2e-14 at most here).
    e = np.random.default_rng(n).uniform(0.0, 10.0, n)
    m = build_chain(n, e, v=1.0, trap_rate=0.0 if lossless else 0.5, decay_rate=0.0 if lossless else 0.001)
    h = effective_hamiltonian(m).matrix
    w, v, vinv, _ = eig_system(h)
    for tau in (0.01, 0.3, 2.0):
        if lossless:  # real spectrum: the diagonal of E takes the small-delta branch
            assert np.all(np.abs(w.imag) * 2 * tau < 1e-10)
        a = _interval_integrals_eigen(w, v, vinv, tau)
        assert np.max(np.abs(a - reference_interval_integrals(w, v, vinv, tau))) < 1e-13
        assert np.max(np.abs(a - _interval_integrals_quadrature(h, tau))) < 1e-10


def test_measured_divergent_without_loss():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    with pytest.raises(ValueError, match="non-convergent|efficiency undefined"):
        efficiency_measured(m, 0.3)


def test_measured_series_vs_direct_summation(rng):
    # geometric-series closed form against explicit summation over 1e4 intervals
    for _ in range(5):
        n = int(rng.integers(2, 6))
        e = rng.uniform(0, 10, n)
        m = build_chain(
            n, e, v=1.0, trap_rate=float(rng.uniform(0.2, 0.8)), decay_rate=float(rng.uniform(0.005, 0.02))
        )
        tau = float(rng.uniform(0.05, 0.5))
        eta = efficiency_measured(m, tau).eta
        h = effective_hamiltonian(m).matrix
        w, v_, vinv, _ = eig_system(h)
        a = _interval_integrals_eigen(w, v_, vinv, tau)
        weights = 2.0 * m.trap_rates @ a
        t = np.abs((v_ * np.exp(-1j * w * tau)) @ vinv) ** 2
        p = np.zeros(n)
        p[0] = 1.0
        total = 0.0
        for _ in range(10000):
            total += weights @ p
            p = t @ p
        assert abs(total - eta) < 1e-6


def test_sum_rule_on_measured(two_site_disordered):
    for tau in [0.01, 0.31, 2.0]:
        r = efficiency_measured(two_site_disordered, tau)
        assert abs(r.trapped + r.dissipated + r.residual - 1.0) < 1e-6


def test_tau_scan_single_point(two_site_disordered):
    scan = tau_scan(two_site_disordered, [0.3])
    assert scan.etas[0] == efficiency_measured(two_site_disordered, 0.3).eta


def test_tau_scan_validation(two_site_disordered):
    with pytest.raises(ValueError):
        tau_scan(two_site_disordered, [])
    with pytest.raises(ValueError):
        tau_scan(two_site_disordered, [0.0, 0.1])
    with pytest.raises(ValueError):
        tau_scan(two_site_disordered, [0.2, 0.1])


@pytest.mark.parametrize("grid", [[[0.1, 0.2]], [0.1, np.nan], [0.1, np.inf]])
def test_tau_scan_rejects_non_grids(two_site_disordered, grid):
    # a 2-D grid used to fail with "truth value ... ambiguous"
    with pytest.raises(ValueError, match="tau grid must be"):
        tau_scan(two_site_disordered, grid)


def test_large_tau_ordering_by_disorder():
    # at eps tau = 20 the curves stack top-to-bottom with increasing eps
    etas = [efficiency_measured(fig2_model(eps), 20.0 / eps).eta for eps in (5, 10, 15, 20)]
    assert etas[0] > etas[1] > etas[2] > etas[3]


def test_optimal_tau_two_site(two_site_disordered):
    out = optimal_tau(two_site_disordered)
    assert 0.5 * np.pi / 10 <= out["tau"] <= 1.5 * np.pi / 10
    assert out["eta"] >= 0.975


def test_optimal_tau_lossless_trap():
    m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.0)
    assert optimal_tau(m)["eta"] == pytest.approx(1.0, abs=1e-6)


def test_optimal_tau_matches_asymptotic_at_eps20():
    m = fig2_model(20)
    out = optimal_tau(m)
    assert abs(out["eta"] - asymptotic_efficiency_max(m)) < 0.01


def test_optimal_tau_bad_bracket(two_site_disordered):
    with pytest.raises(ValueError):
        optimal_tau(two_site_disordered, bracket=(0.5, 0.1))


@pytest.mark.parametrize("bracket", [(0.01, np.inf), (np.nan, 0.5)])
def test_optimal_tau_rejects_non_finite_bracket(two_site_disordered, bracket):
    # (0.01, inf) used to raise LinAlgError
    with pytest.raises(ValueError, match="bracket must be positive and finite"):
        optimal_tau(two_site_disordered, bracket=bracket)


def test_asymptotic_efficiency_max_values():
    assert asymptotic_efficiency_max(fig2_model(10)) == pytest.approx(
        1 - 2 * 0.001 * (2 + np.pi * 10 / 4)
    )
    assert asymptotic_efficiency_max(fig2_model(20)) == pytest.approx(0.9646, abs=5e-5)
    no_decay = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.0)
    assert asymptotic_efficiency_max(no_decay) == 1.0


def test_asymptotic_efficiency_max_warns_out_of_regime():
    with pytest.warns(UserWarning):
        asymptotic_efficiency_max(fig2_model(3))


def test_asymptotic_deficit_values():
    assert asymptotic_deficit_no_measurement(fig2_model(10)) == pytest.approx(0.2)
    no_decay = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=0.0)
    assert asymptotic_deficit_no_measurement(no_decay) == 0.0


def test_deficit_scaling_ratio():
    for eps in (5, 10, 15, 20):
        m = fig2_model(eps)
        exact = 1.0 - efficiency_no_measurement(m).eta
        assert 0.5 <= exact / asymptotic_deficit_no_measurement(m) <= 2.0


def test_eta_monotone_in_decay_rate():
    prev = None
    for gamma in [0.0005, 0.001, 0.002, 0.005, 0.01]:
        m = build_chain(2, [10.0, 0.0], v=1.0, trap_rate=0.5, decay_rate=gamma)
        eta = efficiency_measured(m, 0.3).eta
        if prev is not None:
            assert eta <= prev + 1e-12
        prev = eta


def test_chain_deterioration():
    # 1 - eta(tau*) grows with chain length; each increment of order Gamma eps / v^2
    deficits = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for L in range(1, 6):
            m = build_chain(L + 1, np.linspace(10.0, 0.0, L + 1), v=1.0, trap_rate=0.5, decay_rate=0.001)
            # longer chains push the optimum to larger tau than the default bracket
            out = optimal_tau(m) if L <= 4 else optimal_tau(m, bracket=(0.05, 3.0))
            deficits.append(1.0 - out["eta"])
    increments = np.diff(deficits)
    assert np.all(increments > 0)
    assert np.all(increments >= 0.01 / 3)
    assert np.all(increments <= 0.01 * 3)


def test_scan_csv_format(tmp_path, two_site_disordered):
    scan = tau_scan(two_site_disordered, [0.1, 0.2, 0.3])
    path = tmp_path / "scan.csv"
    scan_to_csv(scan, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,eps_tau,eta,trapped,dissipated,residual"
    assert len(lines) == 4
    row = [float(x) for x in lines[1].split(",")]
    assert row[0] == 0.1
    assert row[1] == pytest.approx(1.0)  # eps * tau
    assert row[2] == pytest.approx(scan.etas[0], abs=1e-10)
