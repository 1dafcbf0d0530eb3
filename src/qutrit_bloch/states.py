"""Qutrit state geometry: angle parametrization, density matrices, Bloch maps.

A pure qutrit state is parametrized by two polar and two azimuthal angles,

    c1 = cos(theta1/2)
    c2 = exp(i phi1) sin(theta1/2) sin(theta2/2)
    c3 = exp(i phi2) sin(theta1/2) cos(theta2/2)

with theta in [0, pi] and phi in [0, 2 pi). The Bloch vector is the real
8-vector n_k = Tr[lambda_k rho]; for every pure state its squared norm is
exactly 4/3, so pure states live on a seven-sphere of radius sqrt(4/3)
embedded in R^8.

Convention: the density matrix of a pure state is rho = |psi><psi|, i.e.
rho_ij = c_i conj(c_j). This choice fixes the signs of the antisymmetric
Bloch components n2, n5, n7; all quadratic invariants (norms, purity,
sector norms) are independent of it.
"""

from __future__ import annotations

import math

import numpy as np

from .model import _SQRT3, ATOL_NUMERIC, CARDINAL_ANGLES, CARDINAL_LABELS, _Record
from .su3 import _gellmann_traces, _real_part, gellmann_basis

__all__ = [
    "AngleParams",
    "BlochRegionError",
    "bloch_from_amplitudes",
    "bloch_from_density",
    "bloch_geometric",
    "cardinal_state",
    "density_from_bloch",
    "density_from_state",
    "purity",
    "state_from_angles",
]

#: Eigenvalues of a reconstructed density matrix may undershoot zero by this much.
PSD_TOL = 1e-10

#: The largest |n_k| the PSD_TOL check admits, (2/sqrt(3))(1 + 3 PSD_TOL) for n_8.
_COMPONENT_BOUND = 2.0 / _SQRT3 + 2.0 * _SQRT3 * PSD_TOL


class BlochRegionError(ValueError):
    """A Bloch vector lies outside the physical (positive semidefinite) region."""


class AngleParams(_Record):
    """Geometric qutrit angles: theta1, theta2 in [0, pi], phi1, phi2 in [0, 2 pi).

    Each angle is a float, or an array of angles for a batch of states (the
    four broadcast against each other); every entry must be real and is
    range-checked.
    """

    __slots__ = ("theta1", "theta2", "phi1", "phi2")

    def __init__(self, theta1: float | np.ndarray, theta2: float | np.ndarray,
                 phi1: float | np.ndarray = 0.0, phi2: float | np.ndarray = 0.0) -> None:
        self._fill(theta1, theta2, phi1, phi2)
        for name in self.__slots__:
            # numpy orders complex numbers by their real part first, so the
            # range checks below would pass a complex angle.
            if np.iscomplexobj(getattr(self, name)):
                raise ValueError(f"{name}={getattr(self, name)} is not real")
        for name in ("theta1", "theta2"):
            v = np.asarray(getattr(self, name))
            if not np.all((0.0 <= v) & (v <= math.pi)):
                raise ValueError(f"{name}={v} outside [0, pi]")
        for name in ("phi1", "phi2"):
            v = np.asarray(getattr(self, name))
            if not np.all((0.0 <= v) & (v < 2.0 * math.pi)):
                raise ValueError(f"{name}={v} outside [0, 2 pi)")


def state_from_angles(a: AngleParams) -> np.ndarray:
    """Return the normalized amplitude triple (c1, c2, c3) for the given angles.

    Shape (3,) for scalar angles, (..., 3) for arrays of angles.
    """
    theta1, theta2, phi1, phi2 = np.broadcast_arrays(a.theta1, a.theta2, a.phi1, a.phi2)
    half1, half2 = theta1 / 2.0, theta2 / 2.0
    sin_h1 = np.sin(half1)
    return np.stack(
        [
            np.cos(half1) + 0j,
            np.exp(1j * phi1) * sin_h1 * np.sin(half2),
            np.exp(1j * phi2) * sin_h1 * np.cos(half2),
        ],
        axis=-1,
    )


def cardinal_state(label: str) -> tuple[AngleParams, np.ndarray]:
    """Return (angles, amplitudes) for a named cardinal or superposition state."""
    try:
        theta1, theta2 = CARDINAL_ANGLES[label]
    except KeyError:
        raise ValueError(
            f"unknown cardinal label {label!r}; expected one of {CARDINAL_LABELS}"
        ) from None
    angles = AngleParams(theta1, theta2)
    return angles, state_from_angles(angles)


def density_from_state(c: np.ndarray) -> np.ndarray:
    """Return rho = |psi><psi| for amplitude triple(s): (3,) -> (3, 3), (N, 3) -> (N, 3, 3).

    Raises ValueError unless the last axis has length 3.
    """
    c = np.asarray(c, dtype=complex)
    if c.shape[-1:] != (3,):
        raise ValueError(f"amplitude triple must have shape (3,), got {c.shape}")
    return c[..., :, None] * c[..., None, :].conj()


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Map density matrices to Bloch vectors, n_k = Tr[lambda_k rho].

    Accepts shape (3, 3) or (N, 3, 3) and returns (8,) or (N, 8). The traces
    must be real up to 1e-12; a larger or NaN imaginary residue (a
    non-Hermitian or non-finite input) raises :class:`ConsistencyError`.
    """
    return _real_part(_gellmann_traces(rho)[..., 1:], "Bloch traces", ATOL_NUMERIC)


def bloch_from_amplitudes(c: np.ndarray) -> np.ndarray:
    """Bloch vector(s) of pure amplitude triple(s), written out componentwise.

    Accepts shape (3,) or (N, 3) and returns (8,) or (N, 8); any other shape
    raises ValueError. Identical to
    ``bloch_from_density(density_from_state(c))`` but cheaper on trajectories:

        n1 = 2 Re(conj(c1) c2)      n2 = 2 Im(conj(c1) c2)
        n3 = |c1|^2 - |c2|^2
        n4 = 2 Re(conj(c1) c3)      n5 = 2 Im(conj(c1) c3)
        n6 = 2 Re(conj(c2) c3)      n7 = 2 Im(conj(c2) c3)
        n8 = (|c1|^2 + |c2|^2 - 2 |c3|^2) / sqrt(3)

    The 1/sqrt(3) prefactor of n8 is forced by Tr[lambda_8 rho]; any other
    value breaks the pure-state norm identity |n|^2 = 4/3.

    Each component is written into the result as it is computed, with the
    ufuncs of the formulas above in their order, so no (N, 8) temporary is made.
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim not in (1, 2) or c.shape[-1] != 3:
        raise ValueError(f"amplitude triples must have shape (3,) or (N, 3), got {c.shape}")
    single = c.ndim == 1
    c = np.atleast_2d(c)
    c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
    n = np.empty((len(c), 8))
    for k, (a, b) in zip((0, 3, 5), ((c1, c2), (c1, c3), (c2, c3))):
        x = a.conj() * b
        np.multiply(2.0, x.real, out=n[:, k])
        np.multiply(2.0, x.imag, out=n[:, k + 1])
    p1, p2, p3 = np.abs(c1) ** 2, np.abs(c2) ** 2, np.abs(c3) ** 2
    np.subtract(p1, p2, out=n[:, 2])
    n8 = np.add(p1, p2, out=n[:, 7])
    n8 -= 2.0 * p3
    n8 /= _SQRT3
    return n[0] if single else n


def bloch_geometric(a: AngleParams) -> np.ndarray:
    """Closed-form Bloch vector of the angle parametrization.

    Shape (8,) for scalar angles, (..., 8) for arrays of angles.
    Componentwise (s1 = sin theta1, and so on):

        n1 = s1 sin(theta2/2) cos(phi1)     n2 =  s1 sin(theta2/2) sin(phi1)
        n3 = cos^2(theta1/2) - sin^2(theta1/2) sin^2(theta2/2)
        n4 = s1 cos(theta2/2) cos(phi2)     n5 =  s1 cos(theta2/2) sin(phi2)
        n6 = sin^2(theta1/2) s2 cos(phi1 - phi2)
        n7 = -sin^2(theta1/2) s2 sin(phi1 - phi2)
        n8 = [(1 - 3 cos theta2) + 3 cos theta1 (1 + cos theta2)] / (4 sqrt(3))

    The signs of n2, n5, n7 follow the rho = |psi><psi| convention of this
    module. The n8 prefactor 1/(4 sqrt(3)) is fixed by the trace map: at
    theta1 = 0 the component must equal 1/sqrt(3), and the squared norm must
    come out exactly 4/3 for every angle tuple.
    """
    theta1, theta2, phi1, phi2 = np.broadcast_arrays(a.theta1, a.theta2, a.phi1, a.phi2)
    s1, c1 = np.sin(theta1), np.cos(theta1)
    s2, c2 = np.sin(theta2), np.cos(theta2)
    sin_h1_sq = np.sin(theta1 / 2.0) ** 2
    return np.stack(
        [
            s1 * np.sin(theta2 / 2.0) * np.cos(phi1),
            s1 * np.sin(theta2 / 2.0) * np.sin(phi1),
            np.cos(theta1 / 2.0) ** 2 - sin_h1_sq * np.sin(theta2 / 2.0) ** 2,
            s1 * np.cos(theta2 / 2.0) * np.cos(phi2),
            s1 * np.cos(theta2 / 2.0) * np.sin(phi2),
            sin_h1_sq * s2 * np.cos(phi1 - phi2),
            -sin_h1_sq * s2 * np.sin(phi1 - phi2),
            ((1.0 - 3.0 * c2) + 3.0 * c1 * (1.0 + c2)) / (4.0 * _SQRT3),
        ],
        axis=-1,
    )


def density_from_bloch(n: np.ndarray) -> np.ndarray:
    """Reconstruct rho = (1/3) [lambda_0 + (3/2) sum_k n_k lambda_k].

    Accepts shape (8,) or (..., 8) and returns (3, 3) or (..., 3, 3); a
    vector gives the same bits alone or in a stack. The 3/2 weight makes
    this the exact inverse of :func:`bloch_from_density`. Raises ValueError
    for a non-finite component and :class:`BlochRegionError` if a reconstructed
    eigenvalue is below -1e-10 (a component past what that admits is refused
    first), i.e. the vector lies outside the physical region (in the 4/3-ball).
    """
    n = np.asarray(n, dtype=float)
    if n.shape[-1:] != (8,):
        raise ValueError(f"Bloch vector must have shape (8,), got {n.shape}")
    if not np.isfinite(n).all():
        raise ValueError("Bloch vector has non-finite components")
    if (np.abs(n) > _COMPONENT_BOUND).any():  # refused before it can overflow below
        raise BlochRegionError("Bloch vector outside physical region (a component above 2/sqrt(3))")
    lam = gellmann_basis()
    rho = (lam[0] + 1.5 * np.einsum("...k,kij->...ij", n, lam[1:])) / 3.0
    low = np.linalg.eigvalsh(rho).min(initial=np.inf)  # an empty stack has no eigenvalue
    if not low >= -PSD_TOL:
        raise BlochRegionError(
            f"Bloch vector outside physical region (eigenvalue {low:.3e})"
        )
    return rho


def purity(rho: np.ndarray) -> float | np.ndarray:
    """Return Tr[rho^2], which equals (1/3) (1 + (3/2) |n|^2).

    A float for one (3, 3) matrix, an array for a stack (..., 3, 3); a
    matrix gives the same bits alone or in a stack.
    """
    rho = np.asarray(rho, dtype=complex)
    out = np.einsum("...ij,...ji->...", rho, rho).real
    return float(out) if out.ndim == 0 else out
