import json

import numpy as np
import pytest

from antizeno import (
    DisorderSpec,
    LatticeModel,
    build_chain,
    build_graph,
    effective_hamiltonian,
)
from antizeno import model as model_module


def test_build_chain_two_site(two_site_disordered):
    m = two_site_disordered
    assert m.n_sites == 2
    assert np.allclose(m.site_energies, [10.0, 0.0])
    assert np.allclose(m.couplings, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(m.trap_rates, [0.0, 0.5])
    assert m.decay_rate == 0.001
    assert m.initial_site == 1


def test_build_chain_resonant_dimer(resonant_dimer):
    assert np.array_equal(resonant_dimer.couplings, [[0.0, 1.0], [1.0, 0.0]])
    assert resonant_dimer.decay_rate == 0.0
    assert np.all(resonant_dimer.trap_rates == 0.0)


def test_build_chain_three_site(three_site_degenerate):
    m = three_site_degenerate
    assert np.allclose(m.site_energies, [1.0, 10.0, 1.0])
    assert m.initial_site == 2
    # nearest-neighbor only
    assert m.couplings[0, 2] == 0.0
    assert m.couplings[0, 1] == m.couplings[1, 2] == 1.0


def test_build_chain_rejects_bad_input():
    with pytest.raises(ValueError):
        build_chain(3, [1.0, 2.0], v=1.0, trap_rate=0.0, decay_rate=0.0)
    with pytest.raises(ValueError):
        build_chain(2, [1.0, 2.0], v=1.0, trap_rate=-0.1, decay_rate=0.0)
    with pytest.raises(ValueError):
        build_chain(1, [1.0], v=1.0, trap_rate=0.0, decay_rate=0.0)


def test_lattice_model_invariants():
    with pytest.raises(ValueError):
        LatticeModel([1.0, 0.0], [[0.0, 1.0], [0.5, 0.0]], [0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        LatticeModel([1.0, 0.0], [[0.2, 1.0], [1.0, 0.0]], [0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        LatticeModel([1.0, np.inf], [[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        LatticeModel([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0], 0.0, initial_site=3)


def test_model_is_immutable(two_site_disordered):
    with pytest.raises(ValueError):
        two_site_disordered.site_energies[0] = 99.0


def test_effective_hamiltonian_diagonal(two_site_disordered):
    h = effective_hamiltonian(two_site_disordered)
    assert np.allclose(np.diag(h.matrix), [10.0 - 0.001j, -0.501j])
    assert h.matrix[0, 1] == 1.0


def test_effective_hamiltonian_hermitian_when_lossless(three_site_degenerate):
    h = effective_hamiltonian(three_site_degenerate)
    assert np.allclose(h.matrix, h.matrix.conj().T)
    assert np.allclose(h.matrix, h.hermitian_part)


def test_antihermitian_part_is_dissipative(two_site_disordered):
    m = two_site_disordered
    h = effective_hamiltonian(m).matrix
    anti = (h - h.conj().T) / (-2j)
    assert np.allclose(anti, np.diag(m.decay_rate + m.trap_rates))


def test_hermitian_part_matches_lossless_model(two_site_disordered):
    m = two_site_disordered
    lossless = build_chain(2, m.site_energies, v=1.0, trap_rate=0.0, decay_rate=0.0)
    assert np.array_equal(
        effective_hamiltonian(m).hermitian_part, effective_hamiltonian(lossless).matrix.real
    )


def test_build_graph_deterministic():
    spec = DisorderSpec(4, "complete", 10.0, 1.0, 0.5, 0.001, seed=7)
    a, b = build_graph(spec), build_graph(spec)
    assert np.array_equal(a.site_energies, b.site_energies)
    assert np.array_equal(a.couplings, b.couplings)


def test_build_graph_endpoint_convention():
    m = build_graph(DisorderSpec(4, "complete", 10.0, 1.0, 0.5, 0.001, seed=3))
    assert m.site_energies[0] - m.site_energies[-1] == 10.0
    assert m.couplings[0, 3] == 1.0  # v_{1,n} pinned
    assert np.all(m.site_energies[1:-1] >= 0.0)
    assert np.all(m.site_energies[1:-1] <= 10.0)


def test_build_graph_minimum_gap():
    for seed in range(10):
        m = build_graph(DisorderSpec(5, "complete", 10.0, 1.0, 0.5, 0.001, seed=seed))
        e = m.site_energies
        gaps = np.abs(e[:, None] - e[None, :])[np.triu_indices(5, k=1)]
        assert gaps.min() >= 10.0 / (2 * 5)


def reference_draw_energies(rng, n, eps):
    """The one-try-at-a-time rejection loop whose stream build_graph keeps."""
    if n == 2 or eps == 0.0:
        e = np.zeros(n)
        e[0] = eps
        return e
    min_gap = eps / (2 * n)
    for _ in range(10000):
        e = np.empty(n)
        e[0] = eps
        e[-1] = 0.0
        e[1:-1] = rng.uniform(0.0, eps, size=n - 2)
        gaps = np.abs(e[:, None] - e[None, :])[np.triu_indices(n, k=1)]
        if np.min(gaps) >= min_gap:
            return e
    raise RuntimeError("could not satisfy the minimum pairwise energy gap")


def _build_or_error(spec):
    try:
        return build_graph(spec)
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16])
@pytest.mark.parametrize("eps", [0.0, 10.0])
def test_build_graph_equals_the_one_try_loop(monkeypatch, n, eps):
    # Energies and couplings bit for bit, and the same RuntimeError where the
    # loop gives up (9 of the 20 seeds at n = 16).  The energies are drawn
    # before any coupling, so a seed whose energies fail fails alike in both
    # topologies, and the slow loop runs once for it.
    failures = 0
    for seed in range(20):
        specs = [DisorderSpec(n, topology, eps, 1.0, 0.5, 0.001, seed=seed) for topology in ("chain", "complete")]
        got = [_build_or_error(spec) for spec in specs]
        with monkeypatch.context() as patch:
            patch.setattr(model_module, "_draw_energies", reference_draw_energies)
            want = [_build_or_error(specs[0])]
            want.append(want[0] if isinstance(want[0], str) else _build_or_error(specs[1]))
        for g, w in zip(got, want):
            if isinstance(w, str):
                assert g == w
            else:
                assert np.array_equal(g.site_energies, w.site_energies)
                assert np.array_equal(g.couplings, w.couplings)
        failures += isinstance(want[0], str)
    assert failures == (9 if n == 16 and eps > 0 else 0)


def test_build_graph_cut_edge():
    spec = DisorderSpec(
        4, "complete_minus_edges", 10.0, 1.0, 0.5, 0.001, seed=1, removed_edges=((1, 4),)
    )
    m = build_graph(spec)
    assert m.couplings[0, 3] == 0.0
    off = [(i, j) for i in range(4) for j in range(i + 1, 4) if (i, j) != (0, 3)]
    assert all(m.couplings[i, j] != 0.0 for i, j in off)


def test_build_graph_disorder_dominates_coupling():
    m = build_graph(DisorderSpec(3, "complete", 10.0, 1.0, 0.5, 0.001, seed=0))
    e = m.site_energies
    max_gap = np.abs(e[:, None] - e[None, :]).max()
    min_v = m.couplings[m.couplings > 0].min()
    assert max_gap / min_v >= 5.0


def test_build_graph_chain_topology():
    m = build_graph(DisorderSpec(5, "chain", 10.0, 1.0, 0.5, 0.001, seed=2))
    for i in range(5):
        for j in range(5):
            if abs(i - j) > 1:
                assert m.couplings[i, j] == 0.0
            elif abs(i - j) == 1:
                assert m.couplings[i, j] == 1.0


def test_disorder_spec_validation():
    with pytest.raises(ValueError):
        DisorderSpec(3, "ring", 10.0, 1.0, 0.5, 0.001, seed=0)
    with pytest.raises(ValueError):
        DisorderSpec(3, "complete", -1.0, 1.0, 0.5, 0.001, seed=0)
    with pytest.raises(ValueError):
        DisorderSpec(3, "complete", 10.0, 0.0, 0.5, 0.001, seed=0)
    with pytest.raises(ValueError):
        DisorderSpec(3, "complete_minus_edges", 10.0, 1.0, 0.5, 0.001, seed=0)
    with pytest.raises(ValueError):
        DisorderSpec(
            3, "complete_minus_edges", 10.0, 1.0, 0.5, 0.001, seed=0, removed_edges=((1, 4),)
        )


@pytest.mark.parametrize("field", ["mean_disorder", "coupling_scale"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_disorder_spec_rejects_non_finite_scales(field, bad):
    # a non-finite scale passes a sign check, so it is rejected before it reaches the sampler
    scales = {"mean_disorder": 10.0, "coupling_scale": 1.0, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be"):
        DisorderSpec(4, "chain", scales["mean_disorder"], scales["coupling_scale"], 0.5, 0.001, seed=1)


def test_json_round_trip(two_site_disordered):
    s = two_site_disordered.to_json()
    d = json.loads(s)
    assert set(d) == {
        "n_sites",
        "site_energies",
        "couplings",
        "trap_rates",
        "decay_rate",
        "initial_site",
    }
    back = LatticeModel.from_json(s)
    assert np.array_equal(back.site_energies, two_site_disordered.site_energies)
    assert np.array_equal(back.couplings, two_site_disordered.couplings)
    assert back.decay_rate == two_site_disordered.decay_rate
    assert back.initial_site == two_site_disordered.initial_site


def test_from_dict_checks_n_sites(two_site_disordered):
    d = two_site_disordered.to_dict()
    d["n_sites"] = 3
    with pytest.raises(ValueError):
        LatticeModel.from_dict(d)


@pytest.mark.parametrize(
    "field, value",
    [("n_sites", 2.7), ("n_sites", float("inf")), ("n_sites", True), ("initial_site", 1.5), ("initial_site", None)],
)
def test_from_dict_rejects_non_integer_counts(two_site_disordered, field, value):
    # int() used to truncate 2.7 and 1.5 and to overflow on Infinity
    d = two_site_disordered.to_dict()
    d[field] = value
    with pytest.raises((TypeError, ValueError), match=field):
        LatticeModel.from_dict(d)


def test_from_dict_rejects_unknown_fields_and_non_objects(two_site_disordered):
    d = two_site_disordered.to_dict()
    d["colour"] = "red"
    with pytest.raises(ValueError, match="colour"):
        LatticeModel.from_dict(d)
    with pytest.raises(TypeError, match="object"):
        LatticeModel.from_dict([1, 2])
    with pytest.raises(ValueError, match="site_energies"):
        LatticeModel.from_dict({**two_site_disordered.to_dict(), "site_energies": 1.0})


def test_asymmetric_couplings_name_the_first_pair():
    c = [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.5, 0.0]]
    with pytest.raises(ValueError, match=r"couplings\[2\]\[3\] != couplings\[3\]\[2\]"):
        LatticeModel([0.0, 1.0, 2.0], c, [0.0, 0.0, 0.0], 0.0)


@pytest.mark.parametrize("n_sites", [None, 1, 2.5, True])
def test_disorder_spec_rejects_bad_site_counts(n_sites):
    # None used to crash a sweep mid-run, 1 to fail with "negative dimensions"
    with pytest.raises(ValueError, match="n_sites"):
        DisorderSpec(n_sites, "chain", 10.0, 1.0, 0.5, 0.001, seed=0)


def test_disorder_spec_rejects_non_integer_edges():
    with pytest.raises(ValueError, match="removed edge"):
        DisorderSpec(3, "complete_minus_edges", 10.0, 1.0, 0.5, 0.001, seed=0, removed_edges=((1.5, 3),))
