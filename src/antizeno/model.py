"""Disordered multisite lattice models and their non-Hermitian effective Hamiltonians.

Energies and rates are expressed in units of the reference coupling v, times in
units of 1/v (hbar = 1).  Sites are indexed from 1 in every public interface.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

_SYM_TOL = 1e-12


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _set_fields(obj, state: dict) -> None:
    """__setstate__ of the frozen classes below, which unpickling and copy call:
    the fields of state, each array read-only again as the constructor leaves
    it (numpy unpickles arrays writable).  Anything else the state carries is
    dropped, above all the results kept on first use (a model's _h_eff, a
    Hamiltonian's _eig): those are built anew, so none can outlive a change."""
    for f in fields(obj):
        value = state[f.name]
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, f.name, value)


@dataclass(frozen=True)
class LatticeModel:
    """A disordered multisite system: site energies, coupling graph, loss rates.

    Attributes
    ----------
    site_energies : (n,) array
        Excitation energies eps_i in units of v.
    couplings : (n, n) array
        Real symmetric hopping matrix with zero diagonal.
    trap_rates : (n,) array
        Trapping rate kappa_i at each site (typically nonzero only at the
        terminal site).
    decay_rate : float
        Uniform dissipation rate Gamma.
    initial_site : int
        1-based index of the initially excited site.
    """

    site_energies: np.ndarray
    couplings: np.ndarray
    trap_rates: np.ndarray
    decay_rate: float
    initial_site: int = 1

    def __post_init__(self):
        e = _frozen(self.site_energies)
        c = _frozen(self.couplings)
        k = _frozen(self.trap_rates)
        if e.ndim != 1:
            raise ValueError(f"site_energies must be a list of numbers, got {self.site_energies!r}")
        n = e.shape[0]
        if n < 2:
            raise ValueError(f"need at least 2 sites, got {n}")
        if c.shape != (n, n):
            raise ValueError(f"couplings shape {c.shape} does not match {n} sites")
        if k.shape != (n,):
            raise ValueError(f"trap_rates shape {k.shape} does not match {n} sites")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(c)) and np.all(np.isfinite(k))):
            raise ValueError("model parameters must be finite")
        asym = np.argwhere(np.abs(c - c.T) > _SYM_TOL)
        if asym.size:
            i, j = asym[0] + 1
            raise ValueError(f"couplings must be symmetric: couplings[{i}][{j}] != couplings[{j}][{i}]")
        if np.max(np.abs(np.diag(c))) > _SYM_TOL:
            raise ValueError("couplings must have zero diagonal")
        if np.any(k < 0):
            raise ValueError("trap rates must be nonnegative")
        if not (isinstance(self.decay_rate, numbers.Real) and np.isfinite(self.decay_rate) and self.decay_rate >= 0):
            raise ValueError(f"decay rate must be a finite nonnegative number, got {self.decay_rate!r}")
        if not (_is_integer(self.initial_site) and 1 <= self.initial_site <= n):
            raise ValueError(f"initial_site must be an integer in 1..{n}, got {self.initial_site!r}")
        object.__setattr__(self, "site_energies", e)
        object.__setattr__(self, "couplings", c)
        object.__setattr__(self, "trap_rates", k)
        object.__setattr__(self, "decay_rate", float(self.decay_rate))
        object.__setattr__(self, "initial_site", int(self.initial_site))

    def __setstate__(self, state):
        _set_fields(self, state)

    def __eq__(self, other):
        """Value equality of the to_dict() mappings; hashing stays the dataclass's."""
        return isinstance(other, LatticeModel) and self.to_dict() == other.to_dict()

    @property
    def n_sites(self) -> int:
        return self.site_energies.shape[0]

    @functools.cached_property
    def _h_eff(self) -> "EffectiveHamiltonian":
        """effective_hamiltonian(self), built on first use and kept: the model
        and its arrays are read-only, also after unpickling or a copy
        (_set_fields), so it cannot go stale."""
        return effective_hamiltonian(self)

    def to_dict(self) -> dict:
        return {
            "n_sites": self.n_sites,
            "site_energies": self.site_energies.tolist(),
            "couplings": self.couplings.tolist(),
            "trap_rates": self.trap_rates.tolist(),
            "decay_rate": self.decay_rate,
            "initial_site": self.initial_site,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LatticeModel":
        """The model of a ``to_dict`` mapping; raises TypeError, ValueError or
        KeyError for anything else, including unknown keys."""
        if not isinstance(d, dict):
            raise TypeError(f"a model must be an object, got {d!r}")
        unknown = set(d) - {"n_sites", "site_energies", "couplings", "trap_rates", "decay_rate", "initial_site"}
        if unknown:
            raise ValueError(f"unknown model fields {sorted(unknown)}")
        n = d["n_sites"]
        if not _is_integer(n):
            raise ValueError(f"n_sites must be an integer, got {n!r}")
        m = cls(
            site_energies=d["site_energies"],
            couplings=d["couplings"],
            trap_rates=d["trap_rates"],
            decay_rate=d["decay_rate"],
            initial_site=d.get("initial_site", 1),
        )
        if m.n_sites != n:
            raise ValueError(f"n_sites {n} does not match site_energies length {m.n_sites}")
        return m

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "LatticeModel":
        return cls.from_dict(json.loads(s))


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """H_eff = H - i diag(Gamma + kappa_i); trapping and decay as norm loss."""

    matrix: np.ndarray
    hermitian_part: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix, dtype=complex))
        object.__setattr__(self, "hermitian_part", _frozen(self.hermitian_part))

    def __setstate__(self, state):
        _set_fields(self, state)


@dataclass(frozen=True)
class DisorderSpec:
    """Recipe for a random disordered model, deterministic for a fixed seed.

    ``mean_disorder`` is the gap eps = eps_1 - eps_n, enforced exactly;
    interior energies are uniform on [0, eps] given that every pair of the n
    energies is at least g = eps/(2n) apart, which excludes accidental
    resonances.  They are drawn exactly by the spacing transform, which never
    fails: n - 2 uniforms on [0, eps - (n - 1) g], sorted, the k-th raised by
    k g, then permuted onto the interior sites.
    """

    n_sites: int
    topology: str  # "chain" | "complete" | "complete_minus_edges"
    mean_disorder: float
    coupling_scale: float
    trap_rate: float
    decay_rate: float
    seed: int
    removed_edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not (_is_integer(self.n_sites) and self.n_sites >= 2):
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites!r}")
        if self.topology not in ("chain", "complete", "complete_minus_edges"):
            raise ValueError(f"unknown topology {self.topology!r}")
        for name in ("mean_disorder", "trap_rate", "decay_rate"):
            x = getattr(self, name)
            if not (isinstance(x, numbers.Real) and np.isfinite(x) and x >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {x!r}")
        if not (np.isfinite(self.coupling_scale) and self.coupling_scale > 0):
            raise ValueError("coupling_scale must be positive and finite")
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.topology == "complete_minus_edges" and not self.removed_edges:
            raise ValueError("complete_minus_edges requires at least one removed edge")
        if self.topology != "complete_minus_edges" and self.removed_edges:
            raise ValueError("removed_edges only applies to complete_minus_edges")
        try:
            edges = tuple((a, b) for a, b in self.removed_edges)
        except (TypeError, ValueError):
            raise ValueError(f"removed_edges must be a list of site pairs, got {self.removed_edges!r}") from None
        for a, b in edges:
            if not all(_is_integer(i) and 1 <= i <= self.n_sites for i in (a, b)) or a == b:
                raise ValueError(f"removed edge ({a},{b}) out of range for {self.n_sites} sites")
        object.__setattr__(self, "removed_edges", tuple((int(a), int(b)) for a, b in edges))


def build_chain(n_sites, site_energies, v, trap_rate, decay_rate, initial_site=1):
    """Nearest-neighbor chain with uniform coupling v and a trap at the last site."""
    e = np.asarray(site_energies, dtype=float)
    if n_sites < 2:
        raise ValueError("chain needs at least 2 sites")
    if e.shape != (n_sites,):
        raise ValueError(f"expected {n_sites} site energies, got {e.shape}")
    if trap_rate < 0 or decay_rate < 0:
        raise ValueError("rates must be nonnegative")
    c = np.zeros((n_sites, n_sites))
    idx = np.arange(n_sites - 1)
    c[idx, idx + 1] = v
    c[idx + 1, idx] = v
    k = np.zeros(n_sites)
    k[-1] = trap_rate
    return LatticeModel(e, c, k, decay_rate, initial_site)


def _draw_energies(rng, n, eps):
    """Endpoints pinned to (eps, 0), interior by the spacing transform of
    :class:`DisorderSpec` with gap g = eps/(2n); n = 2 or eps = 0 draws nothing.

    On each ordering of the sites the transform is a translation, so it carries
    the uniform law of the shortened interval onto the uniform law of the set
    where every pair of energies is at least g apart: the law of rejection.
    """
    e = np.zeros(n)
    e[0] = eps
    if n == 2 or eps == 0.0:
        return e
    g = eps / (2 * n)
    u = np.sort(rng.uniform(0.0, eps - (n - 1) * g, size=n - 2))
    e[1:-1] = rng.permutation(u + g * np.arange(1, n - 1))
    return e


def build_graph(spec: DisorderSpec) -> LatticeModel:
    """Sample a random model from a :class:`DisorderSpec`.

    One generator, seeded by spec.seed, gives the interior energies' uniforms,
    then their permutation (see :class:`DisorderSpec`), then the couplings.
    Chains keep the fixed nearest-neighbor coupling v; complete graphs draw one
    coupling per pair i < j, uniform on [0.5v, 1.5v] in row order, with the
    1-n coupling pinned to v.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_sites
    v = spec.coupling_scale
    e = _draw_energies(rng, n, spec.mean_disorder)
    if spec.topology == "chain":
        return build_chain(n, e, v, spec.trap_rate, spec.decay_rate)
    c = np.zeros((n, n))
    i, j = np.triu_indices(n, 1)
    c[i, j] = c[j, i] = rng.uniform(0.5 * v, 1.5 * v, size=i.size)
    c[0, n - 1] = c[n - 1, 0] = v
    for a, b in spec.removed_edges:
        c[a - 1, b - 1] = c[b - 1, a - 1] = 0.0
    k = np.zeros(n)
    k[-1] = spec.trap_rate
    return LatticeModel(e, c, k, spec.decay_rate, initial_site=1)


def effective_hamiltonian(model: LatticeModel) -> EffectiveHamiltonian:
    """H_eff with diagonal eps_i - i(Gamma + kappa_i) and couplings off-diagonal."""
    h = model.couplings.astype(complex).copy()
    np.fill_diagonal(h, model.site_energies - 1j * (model.decay_rate + model.trap_rates))
    herm = model.couplings.copy()
    np.fill_diagonal(herm, model.site_energies)
    return EffectiveHamiltonian(matrix=h, hermitian_part=herm)
