"""Acceptance suite: end-to-end checks of the published quantitative claims.

Each test prints a single PASS/FAIL line (bypassing capture) so the whole
suite reads as a checklist.  The efficiency results of items 1-4 come from
module-scoped fixtures, so the probability sum rule (item 5) is asserted over
every one of them whichever tests run and in whatever order.

Where a claim is an asymptotic statement, the check compares against a value
derived for the exact dynamics, and the comment at each test gives the
derivation of its tolerance.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from antizeno import (
    DephasingSpec,
    MeasurementChannel,
    analytic_concurrence,
    asymptotic_efficiency_max,
    binomial_population,
    build_chain,
    build_graph,
    crossover_time,
    DisorderSpec,
    efficiency_dephasing,
    efficiency_measured,
    efficiency_no_measurement,
    integrate_master,
    measured_concurrence,
    optimal_tau,
    quantum_jump_ensemble,
    repeated_measurement_trajectory,
    simulate_concurrence,
    tau_scan,
)
from antizeno.dynamics import eig_system, populations, pure_site_state
from antizeno.model import effective_hamiltonian
from antizeno.transfer import _interval_integrals_quadrature, asymptotic_deficit_no_measurement

EPS_LIST = (5.0, 10.0, 15.0, 20.0)
V, KAPPA, GAMMA = 1.0, 0.5, 0.001  # Figure-2 coupling, trap rate and decay rate
# Zeno scale: the measured hop rate v^2 tau equals the loss rate 2 Gamma
TAU_ZENO = 2.0 * GAMMA / V**2


def fig2_model(eps):
    return build_chain(2, [float(eps), 0.0], v=V, trap_rate=KAPPA, decay_rate=GAMMA)


def fig3_model():
    return build_chain(3, [1.0, 10.0, 1.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def dimer_baseline(eps, v, kappa, gamma):
    """Exact no-measurement efficiency of the dimer, eta_0 = 2 kappa X_22.

    X = int_0^inf rho(t) dt solves the Lyapunov equation
    i(H X - X H^dag) = rho_0 with H = [[eps - i Gamma, v], [v, -i(kappa + Gamma)]]
    and rho_0 = |1><1|; eliminating the three unknowns of the 2x2 system
    gives this rational closed form.
    """
    num = kappa * v**2 * (kappa + 2 * gamma)
    den = (
        kappa**2 * v**2
        + gamma * (eps**2 * kappa + kappa**3 + 4 * kappa * v**2)
        + gamma**2 * (eps**2 + 5 * kappa**2 + 4 * v**2)
        + 8 * gamma**3 * kappa
        + 4 * gamma**4
    )
    return num / den


def surviving_norm(model, taus):
    """||U(tau) e_1||^2, the probability still in the system at tau (scipy expm)."""
    h = effective_hamiltonian(model).matrix
    return np.array([np.sum(np.abs(scipy.linalg.expm(-1j * h * t)[:, 0]) ** 2) for t in taus])


def binomial_window(L, tau, v):
    """Intervals n over which binomial_population's neglected terms are <= 0.1.

    The binomial counts paths of L single hops of weight w = tau^2 v^2.  It
    neglects (a) k hops inside one interval, amplitude (-i v tau)^k / k!, of
    the same total order w^L, whose leading relative share is
    L(L-1) / (4(n-L+1)) (one interval carrying two hops), and (b) back hops
    and reflections, of relative order n w.  With both <= 0.1 their sum stays
    inside a 20% tolerance.
    """
    w = (tau * v) ** 2
    n_max = int(math.floor(0.1 / w))
    return [n for n in range(L, n_max + 1) if L * (L - 1) / (4 * (n - L + 1)) <= 0.1]


@pytest.fixture(scope="module")
def peak_result():
    return efficiency_measured(fig2_model(10.0), np.pi / 10.0)


@pytest.fixture(scope="module")
def baselines():
    return {eps: efficiency_no_measurement(fig2_model(eps)) for eps in EPS_LIST}


@pytest.fixture(scope="module")
def fig2_scans():
    return {eps: tau_scan(fig2_model(eps), np.linspace(0.05, 20.0, 400) / eps) for eps in EPS_LIST}


@pytest.fixture(scope="module")
def zeno_scans():
    """From tau_Z / 20 up to the Figure-2 grid start eps * tau = 0.05."""
    return {eps: tau_scan(fig2_model(eps), np.geomspace(TAU_ZENO / 20, 0.05 / eps, 25)) for eps in EPS_LIST}


@pytest.fixture(scope="module")
def large_tau_scans():
    """From the Figure-2 grid end eps * tau = 20 out to eps * tau = 1e5."""
    return {eps: tau_scan(fig2_model(eps), np.geomspace(20.0, 1e5, 200) / eps) for eps in EPS_LIST}


@pytest.fixture(scope="module")
def series_check():
    """Item 4: the series result and an explicit 1e4-interval summation on 20 random chains."""
    rng = np.random.default_rng(20240817)
    results = []
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        e = rng.uniform(0.0, 10.0, n)
        m = build_chain(
            n,
            e,
            v=float(rng.uniform(0.5, 1.5)),
            trap_rate=float(rng.uniform(0.2, 0.8)),
            decay_rate=float(rng.uniform(0.005, 0.02)),
        )
        tau = float(rng.uniform(0.05, 0.5))
        r = efficiency_measured(m, tau)
        results.append(r)
        # independent oracle: quadrature weights + explicit summation over 1e4 intervals
        h = effective_hamiltonian(m).matrix
        a = _interval_integrals_quadrature(h, tau)
        weights = 2.0 * m.trap_rates @ a
        w, v_, vinv, _ = eig_system(h)
        t = np.abs((v_ * np.exp(-1j * w * tau)) @ vinv) ** 2
        p = np.zeros(n)
        p[0] = 1.0
        total = 0.0
        for _ in range(10000):
            total += weights @ p
            p = t @ p
        worst = max(worst, abs(total - r.eta))
    return tuple(results), worst


def test_criterion_01_peak_efficiency(capsys, peak_result):
    r = peak_result
    formula = asymptotic_efficiency_max(fig2_model(10.0))
    ok = abs(r.eta - 0.98) <= 0.01 and abs(r.eta - formula) <= 0.005
    report(capsys, "01", ok, f"eta(pi/eps) = {r.eta:.5f}, formula {formula:.5f}")


def test_criterion_02_no_measurement_baseline(capsys, baselines):
    # The quoted 0.80 at eps = 10 is the leading order 1 - x of the deficit,
    # x = (Gamma/kappa)(eps/v)^2 = 0.2.  For Gamma << kappa, v the closed form
    # gives eta_0 ~ 1/(1 + x), so 1 - eta_0 = x - x^2 + ...: the quoted value
    # holds to its own order, |(1 - eta_0) - x| <= x^2, while the exact value
    # is asserted against the Lyapunov closed form to round-off.
    worst_exact = 0.0
    order_ok = True
    for eps, r in baselines.items():
        worst_exact = max(worst_exact, abs(r.eta - dimer_baseline(eps, V, KAPPA, GAMMA)))
        x = asymptotic_deficit_no_measurement(fig2_model(eps))
        order_ok = order_ok and abs((1.0 - r.eta) - x) <= x * x
    ok = worst_exact <= 1e-10 and order_ok
    eta10 = baselines[10.0].eta
    x10 = asymptotic_deficit_no_measurement(fig2_model(10.0))
    report(
        capsys,
        "02",
        ok,
        f"eta(no measurement, eps=10) = {eta10:.5f}, max |eta - closed form| = {worst_exact:.1e}, "
        f"|(1 - eta) - x| = {abs(1 - eta10 - x10):.4f} vs x^2 = {x10 * x10:.4f}",
    )


def test_no_measurement_near_exceptional_point():
    # the resonant dimer with kappa = 2v sits at the exceptional point of H_eff;
    # at Gamma = 1e-3 its eigenvector condition number is about 2e8
    m = build_chain(2, [0.0, 0.0], v=V, trap_rate=2.0 * V, decay_rate=GAMMA)
    eta = efficiency_no_measurement(m).eta
    assert abs(eta - dimer_baseline(0.0, V, 2.0 * V, GAMMA)) <= 1e-10


def test_criterion_03a_zeno_suppression_at_small_tau(capsys, zeno_scans):
    # For tau << tau_Z = 2 Gamma / v^2 the initial site loses v^2 tau^2 per
    # interval to hopping and 2 Gamma tau to decay; site 2, decaying at
    # 2(kappa + Gamma) >> v^2 tau, traps what arrives.  So
    # eta -> v^2 tau / (v^2 tau + 2 Gamma), with relative corrections
    # Gamma/kappa = 0.2% and O(eps tau, kappa tau) < 0.01%: the 1% tolerance.
    ok = True
    details = []
    for eps, scan in zeno_scans.items():
        tau0, eta0 = scan.taus[0], scan.etas[0]
        zeno_form = V**2 * tau0 / (V**2 * tau0 + 2.0 * GAMMA)
        rising = bool(np.all(np.diff(scan.etas) > 0))
        ok = ok and eta0 < 0.1 and abs(eta0 / zeno_form - 1.0) <= 0.01 and rising
        details.append(f"{eps:g}:{eta0:.5f}/{zeno_form:.5f}{'' if rising else ' not rising'}")
    report(capsys, "03a", ok, "eta / Zeno form at tau = tau_Z/20: " + ", ".join(details))


def test_criterion_03b_unique_peak_location(capsys, fig2_scans):
    ok = True
    locs = []
    for eps, scan in fig2_scans.items():
        etas = scan.etas
        peak = np.argmax(etas)
        unique = np.sum(etas >= etas[peak] - 1e-12) == 1
        eps_tau_star = eps * scan.taus[peak]
        locs.append(f"{eps:g}:{eps_tau_star:.2f}")
        ok = ok and unique and 0.5 * np.pi <= eps_tau_star <= 1.5 * np.pi
    report(capsys, "03b", ok, "eps*tau peaks " + ", ".join(locs))


def test_criterion_03c_large_tau_approaches_baseline(capsys, fig2_scans, large_tau_scans, baselines):
    # Measured and free dynamics coincide until the first measurement at tau,
    # so both have trapped the same amount by then, and each traps at most the
    # norm N(tau) = ||U(tau) e_1||^2 still in the system afterwards:
    # |eta(tau) - eta_0| <= N(tau), asserted at every point (+1e-12 round-off).
    # At eps*tau = 20, tau is far below the free transfer time 1/Gamma_slow, so
    # measurement still helps; the claimed return to within 0.03 of the
    # baseline is asserted where N(tau) first falls below 0.03.
    ok = True
    details = []
    for eps in EPS_LIST:
        near, far = fig2_scans[eps], large_tau_scans[eps]
        taus = np.concatenate((near.taus, far.taus))
        gaps = np.concatenate((near.etas, far.etas)) - baselines[eps].eta
        norms = surviving_norm(near.model, taus)
        ok = ok and bool(np.all(np.abs(gaps) <= norms + 1e-12))
        first = int(np.argmax(norms < 0.03))
        ok = ok and norms[first] < 0.03 and abs(gaps[first]) <= 0.03
        details.append(
            f"{eps:g}: {gaps[near.taus.size - 1]:+.3f} at 20, {gaps[first]:+.1e} at {eps * taus[first]:.0f}"
        )
    report(capsys, "03c", ok, "eta(eps*tau) - baseline " + "; ".join(details))


def test_criterion_03d_ordering_by_disorder(capsys, fig2_scans):
    tails = [fig2_scans[eps].etas[-1] for eps in EPS_LIST]
    ok = all(a > b for a, b in zip(tails, tails[1:]))
    report(capsys, "03d", ok, "eta at eps*tau=20 ordered " + ", ".join(f"{x:.3f}" for x in tails))


def test_criterion_04_series_vs_direct_summation(capsys, series_check):
    _, worst = series_check
    ok = worst <= 1e-6
    report(capsys, "04", ok, f"max |series - direct| = {worst:.2e} over 20 models")


def test_criterion_05_probability_sum_rule(
    capsys, peak_result, baselines, fig2_scans, zeno_scans, large_tau_scans, series_check
):
    results = [peak_result, *baselines.values(), *series_check[0]]
    for scans in (fig2_scans, zeno_scans, large_tau_scans):
        for scan in scans.values():
            results.extend(scan.results)
    assert len(results) > 1600  # items 1-4 all ran
    worst = max(abs(r.trapped + r.dissipated + r.residual - 1.0) for r in results)
    ok = worst <= 1e-6
    report(capsys, "05", ok, f"max |sum - 1| = {worst:.2e} over {len(results)} results")


def test_criterion_06_measurement_dephasing_correspondence(capsys):
    m = fig2_model(10.0)
    deph = efficiency_dephasing(DephasingSpec(model=m, gamma=5.0, dephased_sites=frozenset({1, 2})))
    meas = efficiency_measured(m, 0.1)
    close = abs(deph.eta - meas.eta) <= 0.03
    two_gammas = np.geomspace(1.0, 100.0, 13)
    etas = [
        efficiency_dephasing(DephasingSpec(model=m, gamma=tg / 2, dephased_sites=frozenset({1, 2}))).eta
        for tg in two_gammas
    ]
    tg_star = two_gammas[int(np.argmax(etas))]
    ok = close and 10.0 / 3 <= tg_star <= 30.0
    report(
        capsys,
        "06",
        ok,
        f"|eta_deph - eta_meas| = {abs(deph.eta - meas.eta):.4f}, sweep max at 2gamma = {tg_star:.2f}",
    )


@pytest.fixture(scope="module")
def fig3_curves():
    times = np.linspace(0.0, 20.0, 2001)
    model = fig3_model()
    curves = {0.0: simulate_concurrence(model, "unitary", (1, 3), times)}
    for tg in (0.1, 10.0, 1000.0):
        spec = DephasingSpec(model=model, gamma=tg / 2.0, dephased_sites=frozenset({2}))
        curves[tg] = simulate_concurrence(model, spec, (1, 3), times)
    return times, curves


def test_criterion_07a_long_time_value(capsys, fig3_curves):
    _, curves = fig3_curves
    final = curves[10.0].values[-1]
    ok = abs(final - 0.50) <= 0.01
    report(capsys, "07a", ok, f"C(t=20) at 2gamma=10 is {final:.4f}")


def test_criterion_07b_matches_measured_formula(capsys, fig3_curves):
    # measured_concurrence is the closed form for periodic middle-site
    # measurement at t_n = n tau: asserted to round-off.  Dephasing at rate
    # 2 gamma applies the same channel at Poisson times with mean interval
    # 1/(2 gamma).  In the Zeno limit an interval of length s hops with weight
    # ~ s^2, and E[s^2] = 2 E[s]^2 for exponential s, so dephasing matches
    # periodic measurement at tau = 2/(2 gamma), not at 1/(2 gamma).  That
    # match is asymptotic in 2 gamma >> eps: the gap must shrink strictly over
    # 2 gamma = 30, 100, 1000 and stay within 0.02 at each.  At 2 gamma = 10 ~ eps
    # neither identification is asymptotic, so that gap is only reported.
    times, curves = fig3_curves
    model = fig3_model()
    tau = 0.1
    t_n = np.arange(1, 201) * tau
    periodic = simulate_concurrence(model, MeasurementChannel(frozenset({2}), tau), (1, 3), t_n)
    periodic_ref = measured_concurrence(9.0, 1.0, tau, t_n)
    exact = float(np.max(np.abs(periodic.values - periodic_ref)))
    gap10 = float(np.max(np.abs(np.interp(t_n, times, curves[10.0].values) - periodic_ref)))
    zeno_curves = {
        tg: simulate_concurrence(
            model, DephasingSpec(model=model, gamma=tg / 2.0, dephased_sites=frozenset({2})), (1, 3), times
        )
        for tg in (30.0, 100.0)
    }
    zeno_curves[1000.0] = curves[1000.0]
    gaps = [
        float(np.max(np.abs(c.values - measured_concurrence(9.0, 1.0, 2.0 / tg, times))))
        for tg, c in zeno_curves.items()
    ]
    shrinking = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok = exact <= 1e-10 and shrinking and max(gaps) <= 0.02
    report(
        capsys,
        "07b",
        ok,
        f"periodic vs closed form {exact:.1e}; master vs closed form at tau = 2/(2gamma) for "
        f"2gamma = 30, 100, 1000: {gaps[0]:.4f}, {gaps[1]:.4f}, {gaps[2]:.1e}; "
        f"2gamma = 10 at tau = 1/(2gamma): {gap10:.4f}",
    )


def test_criterion_07c_unitary_matches_analytic(capsys, fig3_curves):
    times, curves = fig3_curves
    sup = float(np.max(np.abs(curves[0.0].values - analytic_concurrence(9.0, 1.0, times))))
    ok = sup <= 1e-6
    report(capsys, "07c", ok, f"sup |unitary - analytic| = {sup:.2e}")


def test_criterion_07d_zeno_ordering(capsys, fig3_curves):
    times, curves = fig3_curves
    window = times <= 5.0
    means = {tg: float(np.mean(c.values[window])) for tg, c in curves.items()}
    ok = means[1000.0] == min(means.values())
    detail = ", ".join(f"2gamma={tg:g}: {means[tg]:.4f}" for tg in sorted(means))
    report(capsys, "07d", ok, "mean C over t<=5: " + detail)


def test_criterion_08_monte_carlo_oracle(capsys):
    model = fig3_model()
    spec = DephasingSpec(model=model, gamma=5.0, dephased_sites=frozenset({2}))
    rho0 = pure_site_state(3, 2)
    times = [1.0, 5.0, 10.0]
    res = quantum_jump_ensemble(spec, rho0, times, n_traj=10000, seed=20240817, mode="poisson")
    ref = integrate_master(spec, rho0, times)
    worst = 0.0
    ok = True
    for i in range(len(times)):
        dev = np.abs(res.mean_populations[i] - populations(ref[i]))
        bound = np.maximum(3.0 * res.se_populations[i], 0.01)
        worst = max(worst, float(np.max(dev / bound)))
        ok = ok and np.all(dev <= bound)
    # periodic mode vs the measurement-channel trajectory, exact
    tau = 0.1
    grid = np.arange(0, 101) * tau
    per = quantum_jump_ensemble(spec, rho0, grid, n_traj=1, seed=0, mode="periodic")
    traj = repeated_measurement_trajectory(model, MeasurementChannel(frozenset({2}), tau), 100)
    exact = float(np.max(np.abs(per.mean_populations - traj.populations)))
    ok = ok and exact == 0.0
    report(capsys, "08", ok, f"poisson max dev/bound = {worst:.2f}, periodic diff = {exact:.1e}")


def test_criterion_09a_crossover_scaling(capsys):
    ratios = []
    for L in range(2, 7):
        m = build_chain(L + 1, np.linspace(10.0, 0.0, L + 1), v=1.0, trap_rate=0.0, decay_rate=0.0)
        out = crossover_time(m, 0.05, horizon=4000.0)
        ratios.append(out["t_c"] / L)
    ok = max(ratios) / min(ratios) <= 2.0
    report(capsys, "09a", ok, "t_c/L = " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_09b_binomial_vs_exact(capsys):
    # 20% tolerance over the intervals where both terms the binomial neglects
    # are <= 0.1 (see binomial_window): n in [17, 250] for L = 3, tau = 0.02.
    tau, v, L = 0.02, 1.0, 3
    ns = binomial_window(L, tau, v)
    m = build_chain(L + 1, np.linspace(20.0, 0.0, L + 1), v=v, trap_rate=0.0, decay_rate=0.0)
    traj = repeated_measurement_trajectory(m, MeasurementChannel(frozenset(range(1, L + 2)), tau), ns[-1])
    worst = max(
        abs(binomial_population(L, n, tau, v) - traj.populations[n, -1]) / traj.populations[n, -1] for n in ns
    )
    ok = worst <= 0.2
    report(capsys, "09b", ok, f"max relative error over n in [{ns[0]}, {ns[-1]}] = {worst:.3f}, required <= 0.2")


def test_criterion_10_localization_formula(capsys):
    from antizeno import perturbative_average, time_averaged_population

    fixtures = {1: [10.0, 0.0], 2: [10.0, 17.0, 0.0], 3: [10.0, 22.0, 17.0, 0.0]}
    ratios = []
    ok = True
    for L, energies in fixtures.items():
        m = build_chain(L + 1, energies, v=1.0, trap_rate=0.0, decay_rate=0.0)
        ratio = time_averaged_population(m, L + 1, 600.0) / perturbative_average(m)
        ratios.append(f"L={L}:{ratio:.2f}")
        ok = ok and 0.5 <= ratio <= 2.0
    report(capsys, "10", ok, "time-average / formula " + ", ".join(ratios))


def test_criterion_11_topology(capsys):
    kw = dict(mean_disorder=10.0, coupling_scale=1.0, trap_rate=0.5, decay_rate=0.001)
    two_site_peak = optimal_tau(fig2_model(10.0))["eta"]

    def peak(spec):
        return optimal_tau(build_graph(spec), bracket=(0.02, 2.0))["eta"]

    c3 = peak(DisorderSpec(3, "complete", seed=0, **kw))
    c4 = peak(DisorderSpec(4, "complete", seed=0, **kw))
    chain3 = peak(DisorderSpec(3, "chain", seed=0, **kw))
    minus14 = peak(DisorderSpec(4, "complete_minus_edges", seed=0, removed_edges=((1, 4),), **kw))
    close = abs(c3 - two_site_peak) <= 0.05 and abs(c4 - two_site_peak) <= 0.05
    between = min(chain3, c4) <= minus14 <= max(chain3, c4)
    ok = close and between
    report(
        capsys,
        "11",
        ok,
        f"peaks: 2site {two_site_peak:.4f}, c3 {c3:.4f}, c4 {c4:.4f}, chain3 {chain3:.4f}, minus(1,4) {minus14:.4f}",
    )


def test_criterion_12_degeneracy_necessity(capsys):
    def c20(e3):
        m = build_chain(3, [1.0, 10.0, e3], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)
        spec = DephasingSpec(model=m, gamma=5.0, dephased_sites=frozenset({2}))
        return simulate_concurrence(m, spec, (1, 3), [20.0]).values[0]

    drop = c20(1.0) - c20(2.0)
    ok = drop >= 0.05
    report(capsys, "12", ok, f"C(20) drop under eps_3 -> eps_3 + v is {drop:.4f}")
