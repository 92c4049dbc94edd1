import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from antizeno import (
    DephasingSpec,
    DisorderSpec,
    LatticeModel,
    build_chain,
    build_graph,
    effective_hamiltonian,
)
from antizeno import model as model_module
from antizeno.dynamics import eig_system


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


def test_model_equality_is_value_equality():
    # equal copies built separately compare equal (array fields used to make
    # == raise), a one-ulp change in one energy does not, and a DephasingSpec
    # compares its model by value too; hashing is left as the dataclass's
    def chain(e2=10.0):
        return build_chain(3, [1.0, e2, 1.0], v=1.0, trap_rate=0.0, decay_rate=0.0, initial_site=2)

    a, b, c = chain(), chain(), chain(np.nextafter(10.0, 11.0))
    assert a == b and not a != b
    assert a != c and not a == c
    assert DephasingSpec(a, 5.0, {2}) == DephasingSpec(b, 5.0, {2})
    assert DephasingSpec(a, 5.0, {2}) != DephasingSpec(c, 5.0, {2})
    with pytest.raises(TypeError):
        hash(a)


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


def test_cached_effective_hamiltonian(two_site_disordered):
    m = two_site_disordered
    cached = m._h_eff
    assert m._h_eff is cached
    fresh = effective_hamiltonian(m)
    assert fresh is not cached
    for x, y in ((cached.matrix, fresh.matrix), (cached.hermitian_part, fresh.hermitian_part)):
        assert np.array_equal(x, y)
        with pytest.raises(ValueError):
            x[0, 0] = 0.0
    # a replace() copy is another model with its own H_eff, also with equal fields
    same = dataclasses.replace(m)
    assert same._h_eff is not cached and np.array_equal(same._h_eff.matrix, cached.matrix)
    moved = dataclasses.replace(m, site_energies=[11.0, 0.0])
    assert moved._h_eff.matrix[0, 0] == 11.0 - 0.001j and cached.matrix[0, 0] == 10.0 - 0.001j


@pytest.mark.parametrize("trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy])
def test_copies_and_unpickled_models_stay_frozen(trip):
    # numpy unpickles arrays writable, and the state carried the model's _h_eff and the
    # Hamiltonian's _eig, so a write to a thawed site energy left every efficiency on a
    # stale H_eff; a round trip now leaves every array read-only and carries no kept result
    m = build_graph(DisorderSpec(6, "chain", 10.0, 1.0, 0.5, 0.001, seed=3))
    h, eig = m._h_eff, eig_system(m._h_eff)
    back = trip(m)
    assert back == m and "_h_eff" not in vars(back)
    for name in ("site_energies", "couplings", "trap_rates"):
        assert not getattr(back, name).flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            getattr(back, name)[0] = 3.0
    assert back.decay_rate == m.decay_rate and back.initial_site == m.initial_site
    assert back._h_eff is not h and np.array_equal(back._h_eff.matrix, h.matrix)
    assert np.array_equal(back._h_eff.hermitian_part, h.hermitian_part)
    heff = trip(h)
    assert "_eig" not in vars(heff) and not heff.matrix.flags.writeable and not heff.hermitian_part.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        heff.matrix[0, 0] = 3.0
    for got in (eig_system(back._h_eff), eig_system(heff)):
        assert all(np.array_equal(a, b) for a, b in zip(got[:3], eig[:3])) and got[3] == eig[3]


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


def reference_couplings(rng, n, v):
    """The per-edge loop that build_graph's one draw of complete-graph couplings replaces."""
    c = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            c[i, j] = c[j, i] = rng.uniform(0.5 * v, 1.5 * v)
    c[0, n - 1] = c[n - 1, 0] = v
    return c


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 16])
@pytest.mark.parametrize("eps", [0.0, 10.0])
def test_build_graph_equals_the_per_edge_loop(n, eps):
    # The stream order (energies, then couplings) and the couplings bit for
    # bit.  At n = 2 or eps = 0 no energy is drawn, so these models are also
    # those of the rejection sampler the spacing transform replaced.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        if n == 2 or eps == 0.0:
            e = np.zeros(n)
            e[0] = eps
        else:
            e = model_module._draw_energies(rng, n, eps)
        want = reference_couplings(rng, n, 1.0)
        chain = build_graph(DisorderSpec(n, "chain", eps, 1.0, 0.5, 0.001, seed=seed))
        complete = build_graph(DisorderSpec(n, "complete", eps, 1.0, 0.5, 0.001, seed=seed))
        assert np.array_equal(chain.site_energies, e) and np.array_equal(complete.site_energies, e)
        assert np.array_equal(chain.couplings, build_chain(n, e, 1.0, 0.5, 0.001).couplings)
        assert np.array_equal(complete.couplings, want)


def rejection_interior(rng, n, eps, size):
    """size draws of the n - 2 interior energies by rejection: rows uniform on
    [0, eps], kept when every pair of the n energies is at least eps/(2n) apart."""
    kept, total = [], 0
    while total < size:
        u = rng.uniform(0.0, eps, size=(8192, n - 2))
        e = np.column_stack([np.full(len(u), eps), u, np.zeros(len(u))])
        kept.append(u[np.diff(np.sort(e, axis=1), axis=1).min(axis=1) >= eps / (2 * n)])
        total += len(kept[-1])
    return np.concatenate(kept)[:size]


@pytest.mark.parametrize("n", [3, 5, 6])
def test_interior_energies_follow_the_rejection_law(n):
    # Two-sample KS test of each interior site's energy, 4000 spacing-transform
    # draws against 4000 rejection draws.  Under one law the p-value is uniform
    # on [0, 1], so each of the 1 + 3 + 4 = 8 site tests passes p > 1e-3 with
    # probability 0.999, and all do with probability >= 0.992 (union bound) on
    # any seed; the seeds are fixed (smallest p here 0.23).  Without the
    # permutation the sites come out sorted (p < 1e-68 at n = 5, 6); with the
    # interval shortened by n g instead of (n - 1) g, no energy comes within 2g
    # of eps and every marginal moves (p < 1e-20).
    rng = np.random.default_rng(12)
    drawn = np.array([model_module._draw_energies(rng, n, 10.0)[1:-1] for _ in range(4000)])
    want = rejection_interior(np.random.default_rng(13), n, 10.0, 4000)
    for site in range(n - 2):
        assert scipy.stats.ks_2samp(drawn[:, site], want[:, site]).pvalue > 1e-3


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    n=st.integers(2, 128),
    eps=st.floats(0.0, 1e3),
    seed=st.integers(0, 2**63),
    topology=st.sampled_from(["chain", "complete"]),
)
def test_build_graph_always_draws_a_gapped_model(n, eps, seed, topology):
    spec = DisorderSpec(n, topology, eps, 1.0, 0.5, 0.001, seed=seed)
    m = build_graph(spec)
    e = m.site_energies
    assert e[0] == eps and e[-1] == 0.0
    assert np.all((e[1:-1] >= 0.0) & (e[1:-1] <= eps))
    # the minimum adjacent difference of the sorted energies is the minimum pairwise gap
    assert np.diff(np.sort(e)).min() >= eps / (2 * n)
    again = build_graph(spec)
    assert np.array_equal(again.site_energies, e) and np.array_equal(again.couplings, m.couplings)


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 1.5),
        ("seed", True),
        ("seed", -1),
        ("seed", None),
        ("trap_rate", np.nan),
        ("trap_rate", -0.5),
        ("decay_rate", np.inf),
        ("decay_rate", -0.001),
        ("decay_rate", "0"),
        ("removed_edges", (1, 2)),
        ("removed_edges", ((1, 2, 3),)),
    ],
)
def test_disorder_spec_rejects_bad_fields(field, value):
    # seed=1.5 used to fail later in build_graph, seed=True to draw seed 1, and
    # removed_edges=(1, 2) to raise "cannot unpack"
    kw = dict(n_sites=3, topology="complete_minus_edges", mean_disorder=10.0, coupling_scale=1.0,
              trap_rate=0.5, decay_rate=0.001, seed=0, removed_edges=((1, 3),))
    with pytest.raises(ValueError, match=field):
        DisorderSpec(**{**kw, field: value})
