"""Disordered multisite lattice models and their non-Hermitian effective Hamiltonians.

Energies and rates are expressed in units of the reference coupling v, times in
units of 1/v (hbar = 1).  Sites are indexed from 1 in every public interface.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

_SYM_TOL = 1e-12
_MAX_TRIES = 10000


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


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

    @property
    def n_sites(self) -> int:
        return self.site_energies.shape[0]

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


@dataclass(frozen=True)
class DisorderSpec:
    """Recipe for a random disordered model, deterministic for a fixed seed.

    ``mean_disorder`` is the gap eps_1 - eps_n, enforced exactly; interior
    energies are drawn uniformly on [0, eps] with a minimum pairwise gap of
    eps/(2n) to exclude accidental resonances.
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
        if not (np.isfinite(self.mean_disorder) and self.mean_disorder >= 0):
            raise ValueError("mean_disorder must be finite and nonnegative")
        if not (np.isfinite(self.coupling_scale) and self.coupling_scale > 0):
            raise ValueError("coupling_scale must be positive and finite")
        if self.topology == "complete_minus_edges" and not self.removed_edges:
            raise ValueError("complete_minus_edges requires at least one removed edge")
        if self.topology != "complete_minus_edges" and self.removed_edges:
            raise ValueError("removed_edges only applies to complete_minus_edges")
        edges = tuple((a, b) for a, b in self.removed_edges)
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
    """Endpoints pinned to (eps, 0); interior uniform on [0, eps] with a
    minimum pairwise gap of eps/(2n), by rejection over at most _MAX_TRIES tries.

    Each try takes n - 2 uniforms from rng, and rng is left just after the
    accepted try.  Tries are tested a chunk at a time: one (k, n - 2) draw
    holds the stream of k single tries, and a row's minimum pairwise gap is
    the minimum adjacent difference of the sorted row (the same float, since
    rounded subtraction is monotone).  After a hit rng is rewound to the start
    of the chunk and the accepted prefix is drawn again.
    """
    if n == 2 or eps == 0.0:
        e = np.zeros(n)
        e[0] = eps
        return e
    min_gap = eps / (2 * n)
    tried, k = 0, 16
    while tried < _MAX_TRIES:
        k = min(k, _MAX_TRIES - tried)
        start = rng.bit_generator.state
        e = np.empty((k, n))
        e[:, 0] = eps
        e[:, -1] = 0.0
        e[:, 1:-1] = rng.uniform(0.0, eps, size=(k, n - 2))
        hits = np.flatnonzero(np.diff(np.sort(e, axis=1), axis=1).min(axis=1) >= min_gap)
        if hits.size:
            rng.bit_generator.state = start
            rng.uniform(0.0, eps, size=(hits[0] + 1) * (n - 2))
            return e[hits[0]]
        tried += k
        k *= 4
    raise RuntimeError("could not satisfy the minimum pairwise energy gap")


def build_graph(spec: DisorderSpec) -> LatticeModel:
    """Sample a random model from a :class:`DisorderSpec`.

    Chains keep the fixed nearest-neighbor coupling v; complete graphs draw
    couplings uniformly on [0.5v, 1.5v] with the 1-n coupling pinned to v.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_sites
    v = spec.coupling_scale
    e = _draw_energies(rng, n, spec.mean_disorder)
    c = np.zeros((n, n))
    if spec.topology == "chain":
        idx = np.arange(n - 1)
        c[idx, idx + 1] = v
        c[idx + 1, idx] = v
    else:
        for i in range(n):
            for j in range(i + 1, n):
                c[i, j] = c[j, i] = rng.uniform(0.5 * v, 1.5 * v)
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
