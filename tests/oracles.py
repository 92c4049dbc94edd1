"""Independent references for the interval integrals A[i,j] = int g(s) |<i|U(s)|j>|^2 ds.

The engine forms A on the eigenbasis, with a doubled Gauss-Legendre panel where
the eigenbasis fails.  The tests hold both to these two, which reach A by
other routes: a composite quadrature for the periodic law and a Lyapunov solve
for the Poisson law.
"""

import math

import numpy as np
import scipy.linalg

from antizeno.dynamics import _propagators


def _interval_integrals_quadrature(h, tau):
    """Composite Gauss-Legendre fallback for the per-interval integrals: 16 nodes on each of
    max(4, ceil(tau ||H_eff||_1)) panels, so no panel spans more than 2 radians of a frequency
    of |U(s)|^2 (each is at most 2 ||H_eff||_1), summed from one propagator stack per 4 panels."""
    x, wts = np.polynomial.legendre.leggauss(16)
    panels = max(4, math.ceil(tau * np.linalg.norm(h, 1)))
    width, a = tau / panels, np.zeros(h.shape)
    for first in range(0, panels, 4):
        s = (np.arange(first, min(first + 4, panels))[:, None] * width + (x + 1) * width / 2).ravel()
        a += np.tensordot(np.resize(wts, s.size) * (width / 2), np.abs(_propagators(h, s)) ** 2, axes=1)
    return a


def _poisson_integrals_schur(model, rate):
    """_poisson_integrals by a Lyapunov solve per column, exact to roundoff
    also where H_eff is defective or a mode does not decay.

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
