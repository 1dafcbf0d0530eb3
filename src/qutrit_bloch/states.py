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
from dataclasses import dataclass

import numpy as np

from .su3 import ATOL_EXACT, ATOL_NUMERIC, ConsistencyError, gellmann_basis

__all__ = [
    "BLOCH_NORM_SQ",
    "AngleParams",
    "BlochRegionError",
    "CARDINAL_LABELS",
    "bloch_from_amplitudes",
    "bloch_from_density",
    "bloch_geometric",
    "cardinal_state",
    "density_from_bloch",
    "density_from_state",
    "purity",
    "state_from_angles",
    "validate_density",
    "validate_pure_state",
]

#: Squared Bloch norm of every pure qutrit state.
BLOCH_NORM_SQ = 4.0 / 3.0

#: Eigenvalues of a reconstructed density matrix may undershoot zero by this much.
PSD_TOL = 1e-10

_SQRT3 = math.sqrt(3.0)


class BlochRegionError(ValueError):
    """A Bloch vector lies outside the physical (positive semidefinite) region."""


@dataclass(frozen=True)
class AngleParams:
    """Geometric qutrit angles: theta1, theta2 in [0, pi], phi1, phi2 in [0, 2 pi).

    Each angle is a float, or an array of angles for a batch of states (the
    four broadcast against each other); every entry is range-checked.
    """

    theta1: float | np.ndarray
    theta2: float | np.ndarray
    phi1: float | np.ndarray = 0.0
    phi2: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
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


#: Angle tuples (theta1, theta2) of the cardinal states and their equal-weight
#: superpositions, with both azimuthal phases fixed to zero. ``superpose13``
#: uses (pi/2, 0), the unique polar tuple that yields the 1-3 superposition
#: under the parametrization above.
CARDINAL_ANGLES: dict[str, tuple[float, float]] = {
    "one": (0.0, 0.0),
    "two": (math.pi, math.pi),
    "three": (math.pi, 0.0),
    "superpose12": (math.pi / 2.0, math.pi),
    "superpose23": (math.pi, math.pi / 2.0),
    "superpose13": (math.pi / 2.0, 0.0),
    "superposeAll": (math.pi / 2.0, math.pi / 3.0),
}

CARDINAL_LABELS = tuple(CARDINAL_ANGLES)


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


def validate_pure_state(c: np.ndarray, atol: float = ATOL_NUMERIC) -> np.ndarray:
    """Check normalization of an amplitude triple and return it as an array."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (3,):
        raise ValueError(f"amplitude triple must have shape (3,), got {c.shape}")
    norm_sq = float(np.vdot(c, c).real)
    if abs(norm_sq - 1.0) > atol:
        raise ValueError(f"state not normalized: |c|^2 = {norm_sq!r}")
    return c


def density_from_state(c: np.ndarray) -> np.ndarray:
    """Return rho = |psi><psi| for amplitude triple(s): (3,) -> (3, 3), (N, 3) -> (N, 3, 3)."""
    c = np.asarray(c, dtype=complex)
    return c[..., :, None] * c[..., None, :].conj()


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError(f"density matrix must be 3x3, got {rho.shape}")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > ATOL_EXACT:
        raise ValueError(f"density matrix not Hermitian (residue {herm:.3e})")
    tr = np.trace(rho)
    if abs(tr - 1.0) > ATOL_NUMERIC:
        raise ValueError(f"density matrix trace {tr!r} differs from 1")
    low = np.linalg.eigvalsh(rho).min()
    if low < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
    return rho


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Map density matrices to Bloch vectors, n_k = Tr[lambda_k rho].

    Accepts shape (3, 3) or (N, 3, 3) and returns (8,) or (N, 8). The traces
    must be real up to 1e-12; a larger imaginary residue indicates a
    non-Hermitian input and raises :class:`ConsistencyError`.
    """
    rho = np.asarray(rho, dtype=complex)
    lam = np.stack(gellmann_basis()[1:])
    traces = np.einsum("kij,...ji->...k", lam, rho)
    residue = np.abs(traces.imag).max()
    if residue > ATOL_NUMERIC:
        raise ConsistencyError(f"Bloch traces not real (residue {residue:.3e})")
    return traces.real.copy()


def bloch_from_amplitudes(c: np.ndarray) -> np.ndarray:
    """Bloch vector(s) of pure amplitude triple(s), written out componentwise.

    Accepts shape (3,) or (N, 3) and returns (8,) or (N, 8). Identical to
    ``bloch_from_density(density_from_state(c))`` but cheaper on trajectories:

        n1 = 2 Re(conj(c1) c2)      n2 = 2 Im(conj(c1) c2)
        n3 = |c1|^2 - |c2|^2
        n4 = 2 Re(conj(c1) c3)      n5 = 2 Im(conj(c1) c3)
        n6 = 2 Re(conj(c2) c3)      n7 = 2 Im(conj(c2) c3)
        n8 = (|c1|^2 + |c2|^2 - 2 |c3|^2) / sqrt(3)

    The 1/sqrt(3) prefactor of n8 is forced by Tr[lambda_8 rho]; any other
    value breaks the pure-state norm identity |n|^2 = 4/3.
    """
    c = np.asarray(c, dtype=complex)
    single = c.ndim == 1
    c = np.atleast_2d(c)
    c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
    p1, p2, p3 = np.abs(c1) ** 2, np.abs(c2) ** 2, np.abs(c3) ** 2
    x12 = c1.conj() * c2
    x13 = c1.conj() * c3
    x23 = c2.conj() * c3
    n = np.stack(
        [
            2.0 * x12.real, 2.0 * x12.imag, p1 - p2,
            2.0 * x13.real, 2.0 * x13.imag,
            2.0 * x23.real, 2.0 * x23.imag,
            (p1 + p2 - 2.0 * p3) / _SQRT3,
        ],
        axis=-1,
    )
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
    this the exact inverse of :func:`bloch_from_density`. Raises
    :class:`BlochRegionError` if a reconstructed matrix has an eigenvalue
    below -1e-10, i.e. the vector lies outside the physical region (which is
    a proper subset of the 4/3-ball for a qutrit).
    """
    n = np.asarray(n, dtype=float)
    if n.shape[-1:] != (8,):
        raise ValueError(f"Bloch vector must have shape (8,), got {n.shape}")
    lam = gellmann_basis()
    w = n[..., None, None]  # each component broadcast over a 3x3 matrix
    rho = lam[0] + 1.5 * sum(w[..., k, :, :] * lam[k + 1] for k in range(8))
    rho = rho / 3.0
    low = np.linalg.eigvalsh(rho).min()
    if low < -PSD_TOL:
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
