"""Rotating-frame dynamics of driven three-level systems.

Covers the three dipole-allowed coupling topologies:

    Lambda  two lower levels (2, 3) driven to the common upper level 1
    Vee     one lower level (3) driven to the two upper levels 1, 2
    Xi      ladder 1-2-3

At equal detuning Delta the rotating-frame Hamiltonians are real symmetric
and time independent, so the Schroedinger evolution has an exact
eigendecomposition propagator. Bloch vectors follow n_k(t) = Tr[lambda_k rho(t)]
and obey the linear equation dn/dt = M n with M the adjoint-representation
generator derived from the Liouville equation drho/dt = -i [H, rho]:

    M_kl = 2 sum_j h_j f_jlk,    H = h_0 lambda_0 + sum_j h_j lambda_j.

M is exactly antisymmetric (total antisymmetry of f), which is what makes
|n|^2 = 4/3 a constant of motion. At Delta = 0 every off-block entry of M
vanishes and the eight components decouple into two invariant sectors, a
five-component one (a four-sphere) and a three-component one (a two-sphere),
whose squared norms are separately conserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import bloch_from_amplitudes, validate_pure_state
from .su3 import ConsistencyError, gellmann_coefficients, structure_constants

__all__ = [
    "Configuration",
    "SimParams",
    "SplitReport",
    "Trajectory",
    "adjoint_generator",
    "bloch_trajectory",
    "integrate_bloch_ode",
    "lambda_closed_form",
    "propagate_exact",
    "rabi_frequency",
    "resonance_split_check",
    "rk4_error_estimate",
    "rotating_hamiltonian",
    "sector_index_sets",
    "sector_initial_norms",
]

#: Residue ceiling for the closed-form sector norm polynomials.
SECTOR_IMAG_TOL = 1e-10

_SQRT3 = math.sqrt(3.0)


class Configuration(Enum):
    """Coupling topology of the driven three-level system."""

    LAMBDA = "lambda"
    VEE = "vee"
    XI = "xi"

    @classmethod
    def parse(cls, label: str) -> "Configuration":
        try:
            return cls(label.strip().lower())
        except ValueError:
            valid = ", ".join(c.value for c in cls)
            raise ValueError(f"unknown configuration {label!r}; expected {valid}") from None


_EQUAL_POPULATIONS = (
    complex(1.0 / _SQRT3), complex(1.0 / _SQRT3), complex(1.0 / _SQRT3),
)


@dataclass(frozen=True)
class SimParams:
    """Inputs of one rotating-frame simulation at equal detuning.

    ``kappa_a`` and ``kappa_b`` are the two drive couplings; their physical
    names depend on the configuration (README, "Run configuration format").
    ``delta`` is the shared detuning. ``coupling_convention`` selects whether
    the Hamiltonian off-diagonals carry kappa/2 (``half``, the default) or
    bare kappa (``full``).
    """

    config: Configuration
    kappa_a: float
    kappa_b: float
    delta: float
    c0: tuple[complex, complex, complex] = _EQUAL_POPULATIONS
    coupling_convention: str = "half"

    def __post_init__(self) -> None:
        for name in ("kappa_a", "kappa_b"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if self.coupling_convention not in ("half", "full"):
            raise ValueError(
                f"coupling_convention must be 'half' or 'full', got {self.coupling_convention!r}"
            )
        c0 = validate_pure_state(np.array(self.c0, dtype=complex))
        object.__setattr__(self, "c0", tuple(complex(x) for x in c0))

    @property
    def c0_array(self) -> np.ndarray:
        return np.array(self.c0, dtype=complex)

    @property
    def coupling_gain(self) -> float:
        return 0.5 if self.coupling_convention == "half" else 1.0


def rotating_hamiltonian(p: SimParams) -> np.ndarray:
    """Real symmetric rotating-frame Hamiltonian at equal detuning.

    With g the coupling gain (1/2 or 1):

        Lambda: diag(2D/3, -D/3, -D/3),  H12 = g kappa23,  H13 = g kappa13
        Vee:    diag(D/3, D/3, -2D/3),   H13 = g kappa13,  H23 = g kappa12
        Xi:     diag(D, 0, -D),          H12 = g kappa23,  H23 = g kappa12
    """
    g, d = p.coupling_gain, p.delta
    h = np.zeros((3, 3))
    if p.config is Configuration.LAMBDA:
        h[0, 0], h[1, 1], h[2, 2] = 2.0 * d / 3.0, -d / 3.0, -d / 3.0
        h[0, 1] = h[1, 0] = g * p.kappa_b
        h[0, 2] = h[2, 0] = g * p.kappa_a
    elif p.config is Configuration.VEE:
        h[0, 0], h[1, 1], h[2, 2] = d / 3.0, d / 3.0, -2.0 * d / 3.0
        h[0, 2] = h[2, 0] = g * p.kappa_a
        h[1, 2] = h[2, 1] = g * p.kappa_b
    else:
        h[0, 0], h[2, 2] = d, -d
        h[0, 1] = h[1, 0] = g * p.kappa_b
        h[1, 2] = h[2, 1] = g * p.kappa_a
    return h


def rabi_frequency(p: SimParams) -> float:
    """Generalized Rabi frequency sqrt(delta^2 + kappa_a^2 + kappa_b^2)."""
    return math.sqrt(p.delta**2 + p.kappa_a**2 + p.kappa_b**2)


def propagate_exact(p: SimParams, times: np.ndarray) -> np.ndarray:
    """Amplitudes c(t) = exp(-i H t) c0 via eigendecomposition, shape (N, 3).

    H is real symmetric, so the eigendecomposition is orthogonal and the
    propagation is unitary to machine precision at every time.
    """
    times = _ascending(times)
    h = rotating_hamiltonian(p)
    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # unreachable for finite symmetric input
        raise ArithmeticError(f"eigendecomposition failed: {exc}") from exc
    weights = vectors.T @ p.c0_array
    phases = np.exp(-1j * np.outer(times, energies))
    return (phases * weights) @ vectors.T


def lambda_closed_form(p: SimParams, t) -> np.ndarray:
    """Closed-form Lambda amplitudes at equal detuning, half convention.

    Derived from the spectral decomposition of the Lambda Hamiltonian, whose
    eigenvalues are -D/3 (the dark state, with no level-1 component) and
    D/6 +- Omega/2 with Omega = sqrt(D^2 + k13^2 + k23^2). Writing
    K2 = k13^2 + k23^2:

        c1 = e^{-iDt/6} [ c10 cos(Wt/2)
                          - (i/W)(c10 D + c30 k13 + c20 k23) sin(Wt/2) ]
        c2 = e^{-iDt/6} / (K2 W) [ e^{iDt/2} k13 (c20 k13 - c30 k23) W
                          + k23 (c30 k13 + c20 k23) W cos(Wt/2)
                          + i k23 (c30 D k13 + c20 D k23 - c10 K2) sin(Wt/2) ]
        c3 = e^{-iDt/6} / K2 [ e^{iDt/2} k23 (c30 k23 - c20 k13)
                          + k13 (c30 k13 + c20 k23) cos(Wt/2)
                          + (i/W) k13 (c30 D k13 + c20 D k23 - c10 K2) sin(Wt/2) ]

    Only valid for the Lambda configuration in the half convention (the
    Omega above matches the eigenvalue splitting only there). Scalar ``t``
    gives shape (3,); an array of times gives (N, 3).
    """
    if p.config is not Configuration.LAMBDA:
        raise ValueError(f"closed form requires the Lambda configuration, got {p.config.value}")
    if p.coupling_convention != "half":
        raise ValueError("closed form is only valid in the half coupling convention")
    k13, k23, d = p.kappa_a, p.kappa_b, p.delta
    ksq = k13**2 + k23**2
    if ksq == 0.0:
        raise ValueError("closed form requires a nonzero coupling")
    omega = rabi_frequency(p)
    c10, c20, c30 = p.c0

    t_arr = np.asarray(t, dtype=float)
    frame = np.exp(-1j * d * t_arr / 6.0)
    dark = np.exp(1j * d * t_arr / 2.0)
    cos_w = np.cos(omega * t_arr / 2.0)
    sin_w = np.sin(omega * t_arr / 2.0)

    bright_drive = c30 * d * k13 + c20 * d * k23 - c10 * ksq
    c1 = frame * (c10 * cos_w - 1j / omega * (c10 * d + c30 * k13 + c20 * k23) * sin_w)
    c2 = frame / (ksq * omega) * (
        dark * k13 * (c20 * k13 - c30 * k23) * omega
        + k23 * (c30 * k13 + c20 * k23) * omega * cos_w
        + 1j * k23 * bright_drive * sin_w
    )
    c3 = frame / ksq * (
        dark * k23 * (c30 * k23 - c20 * k13)
        + k13 * (c30 * k13 + c20 * k23) * cos_w
        + 1j * k13 / omega * bright_drive * sin_w
    )
    return np.stack([c1, c2, c3], axis=-1)


def adjoint_generator(p: SimParams) -> np.ndarray:
    """Build M_kl = 2 sum_j h_j f_jlk from the rotating Hamiltonian, read-only.

    The h_j are the Gell-Mann expansion coefficients of H (the identity
    component h_0 drops out of the commutator). Because the f table is
    totally antisymmetric by construction, M comes out exactly antisymmetric,
    so the integrated Bloch norm is conserved by the flow it generates.
    """
    h = gellmann_coefficients(rotating_hamiltonian(p))
    f = structure_constants().f
    m = 2.0 * np.einsum("j,jlk->kl", h[1:], f)
    m.setflags(write=False)
    return m


#: One-based Bloch component indices of the two invariant sectors at
#: resonance: (four-sphere sector, two-sphere sector).
_SECTOR_SETS: dict[Configuration, tuple[tuple[int, ...], tuple[int, ...]]] = {
    Configuration.LAMBDA: ((2, 3, 5, 6, 8), (1, 4, 7)),
    Configuration.VEE: ((1, 3, 5, 7, 8), (2, 4, 6)),
    Configuration.XI: ((2, 3, 4, 7, 8), (1, 5, 6)),
}


def sector_index_sets(config: Configuration) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One-based component indices (four-sphere sector, two-sphere sector).

    The sets are exactly the connected blocks of the adjoint generator at
    zero detuning; together they partition 1..8.
    """
    return _SECTOR_SETS[config]


def _sector_norms(bloch: np.ndarray, config: Configuration) -> tuple[np.ndarray, np.ndarray]:
    set4, set2 = sector_index_sets(config)
    i4 = [i - 1 for i in set4]
    i2 = [i - 1 for i in set2]
    b = np.atleast_2d(bloch)
    return (b[:, i4] ** 2).sum(axis=1), (b[:, i2] ** 2).sum(axis=1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid plus everything the exporter needs at each grid point.

    ``amplitudes`` is None for trajectories produced by direct Bloch-space
    integration, which never touches amplitudes.
    """

    times: np.ndarray
    amplitudes: np.ndarray | None
    bloch: np.ndarray
    bloch_dot: np.ndarray
    sector4: np.ndarray
    sector2: np.ndarray


def _ascending(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a nonempty 1-D array")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("time grid must be strictly ascending")
    return times


def bloch_trajectory(p: SimParams, times: np.ndarray) -> Trajectory:
    """Exact-propagator trajectory: amplitudes, Bloch vectors, derivatives.

    Derivatives are evaluated algebraically as dn/dt = M n with the adjoint
    generator, not by finite differences.
    """
    times = _ascending(times)
    amps = propagate_exact(p, times)
    bloch = bloch_from_amplitudes(amps)
    m = adjoint_generator(p)
    bloch_dot = bloch @ m.T
    s4, s2 = _sector_norms(bloch, p.config)
    return Trajectory(
        times=times, amplitudes=amps, bloch=bloch, bloch_dot=bloch_dot,
        sector4=s4, sector2=s2,
    )


def integrate_bloch_ode(p: SimParams, times: np.ndarray, dt: float) -> Trajectory:
    """Fixed-step classical RK4 integration of dn/dt = M n from n(0).

    ``times`` is the output grid; every grid interval must be an integer
    multiple of the step ``dt`` (no interpolation, no adaptivity). The
    integration is purely Bloch-space: amplitudes are not tracked.

    M is constant, so one RK4 step is the fixed linear map
    R(dt M) = I + dt M + (dt M)^2/2 + (dt M)^3/6 + (dt M)^4/24, the RK4
    stability function. It is built once by applying the stage formulas to
    the identity, and a grid interval of c steps applies R^c (one matrix
    power per distinct c) instead of looping over the steps. This is the
    same method with the same truncation error; it differs from stepping
    n one step at a time by rounding only.

    Resolution note: the one-step error of RK4 on an oscillation of angular
    frequency w scales as (w dt)^5 / 120, so dt must keep w dt well below 1
    for every eigenfrequency of M (the pairwise level splittings, up to 2
    Delta for the Xi ladder). See docs/derivation_notes.md.
    """
    times = _ascending(times)
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    gaps = np.diff(times)
    if gaps.size and dt > gaps.min() * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} exceeds the smallest grid spacing {gaps.min()}")
    steps = np.rint(gaps / dt).astype(int)
    if np.any(np.abs(steps * dt - gaps) > 1e-9 * np.maximum(1.0, gaps)):
        raise ValueError("every grid interval must be an integer multiple of dt")

    m = adjoint_generator(p)
    # The RK4 stages applied to the identity: one step is n -> step @ n.
    eye = np.eye(8)
    k1 = m
    k2 = m @ (eye + 0.5 * dt * k1)
    k3 = m @ (eye + 0.5 * dt * k2)
    k4 = m @ (eye + dt * k3)
    step = eye + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    powers: dict[int, np.ndarray] = {}
    n = bloch_from_amplitudes(p.c0_array)
    out = np.empty((times.size, 8))
    out[0] = n
    for i, count in enumerate(steps.tolist()):
        if count not in powers:
            powers[count] = np.linalg.matrix_power(step, count)
        n = powers[count] @ n
        out[i + 1] = n
    bloch_dot = out @ m.T
    s4, s2 = _sector_norms(out, p.config)
    return Trajectory(
        times=times, amplitudes=None, bloch=out, bloch_dot=bloch_dot,
        sector4=s4, sector2=s2,
    )


def rk4_error_estimate(p: SimParams, dt: float, t_max: float) -> tuple[float, float]:
    """RK4 step angle rho(M) dt and predicted accumulated error up to ``t_max``.

    The eigenvalues of the adjoint generator M are +-i (E_i - E_j) and zeros,
    with E the eigenvalues of the rotating Hamiltonian, so the spectral
    radius rho(M) is E_max - E_min. The error is the per-step defect
    (rho(M) dt)^5 / 120 times the step count (docs/derivation_notes.md,
    section 9).
    """
    energies = np.linalg.eigvalsh(rotating_hamiltonian(p))
    theta = float(energies[-1] - energies[0]) * dt
    return theta, (t_max / dt) * theta**5 / 120.0


def sector_initial_norms(p: SimParams) -> tuple[float, float]:
    """Closed-form initial sector norms as polynomials in the amplitudes.

    These are the expansions of sum_{k in sector} n_k(0)^2 in terms of
    (c10, c20, c30) and their conjugates; they hold for arbitrary complex
    normalized amplitudes and always sum to 4/3. Raises
    :class:`ConsistencyError` if the evaluated polynomials pick up an
    imaginary residue above 1e-10.
    """
    s4, s2 = _sector_polynomials(p.config, p.c0_array[None])
    return float(s4[0]), float(s2[0])


def _sector_polynomials(config: Configuration, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sector_initial_norms` of each row of ``c`` (N, 3): two real (N,) arrays.

    A row gives the same bits alone or in a stack, so one amplitude triple
    is evaluated as a stack of one.
    """
    c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
    b1, b2, b3 = np.conj(c1), np.conj(c2), np.conj(c3)
    q1, q2, q3 = c1 * b1, c2 * b2, c3 * b3  # populations

    if config is Configuration.LAMBDA:
        s4 = (
            -3.0 * b1**2 * (c2**2 + c3**2)
            + b2**2 * (4.0 * c2**2 + 3.0 * c3**2)
            + 2.0 * q2 * q3
            + (3.0 * c2**2 + 4.0 * c3**2) * b3**2
            + 2.0 * q1 * (q2 + q3)
            + c1**2 * (4.0 * b1**2 - 3.0 * (b2**2 + b3**2))
        ) / 3.0
        s2 = (
            b1**2 * (c2**2 + c3**2)
            - (b2 * c3 - c2 * b3) ** 2
            + 2.0 * q1 * (q2 + q3)
            + c1**2 * (b2**2 + b3**2)
        )
    elif config is Configuration.VEE:
        s4 = (
            4.0 * c2**2 * b2**2
            - 3.0 * b2**2 * c3**2
            + 3.0 * b1**2 * (c2**2 - c3**2)
            + 2.0 * q2 * q3
            - 3.0 * c2**2 * b3**2
            + 4.0 * c3**2 * b3**2
            + 2.0 * q1 * (q2 + q3)
            + c1**2 * (4.0 * b1**2 + 3.0 * b2**2 - 3.0 * b3**2)
        ) / 3.0
        s2 = (
            b1**2 * (-(c2**2) + c3**2)
            + (b2 * c3 + c2 * b3) ** 2
            + 2.0 * q1 * (q2 + q3)
            + c1**2 * (-(b2**2) + b3**2)
        )
    else:
        s4 = (
            4.0 * c2**2 * b2**2
            - 3.0 * b2**2 * c3**2
            - 3.0 * b1**2 * (c2**2 - c3**2)
            + 2.0 * q2 * q3
            - 3.0 * c2**2 * b3**2
            + 4.0 * c3**2 * b3**2
            + 2.0 * q1 * (q2 + q3)
            + c1**2 * (4.0 * b1**2 - 3.0 * b2**2 + 3.0 * b3**2)
        ) / 3.0
        s2 = (
            b1**2 * (c2**2 - c3**2)
            + (b2 * c3 + c2 * b3) ** 2
            + 2.0 * q1 * (q2 + q3)
            + c1**2 * (b2**2 - b3**2)
        )

    residue = max(np.abs(s4.imag).max(), np.abs(s2.imag).max())
    if residue > SECTOR_IMAG_TOL:
        raise ConsistencyError(f"sector norms not real (residue {residue:.3e})")
    return s4.real, s2.real


@dataclass(frozen=True)
class SplitReport:
    """Deviation of the sector norms from their initial values over a run."""

    s4_initial: float
    s2_initial: float
    max_dev4: float
    max_dev2: float
    split: bool

    #: Both deviations at or below this bound count as a conserved split.
    SPLIT_TOL = 1e-6


def resonance_split_check(p: SimParams, times: np.ndarray) -> SplitReport:
    """Measure how well the two sector norms are conserved along a run.

    Uses the exact propagator. The report flags ``split`` when both sector
    norms stay within 1e-6 of their closed-form initial values, which is the
    resonance signature; any finite detuning mixes the sectors and the flag
    drops to False.
    """
    s4_0, s2_0 = sector_initial_norms(p)
    traj = bloch_trajectory(p, times)
    dev4 = float(np.abs(traj.sector4 - s4_0).max())
    dev2 = float(np.abs(traj.sector2 - s2_0).max())
    return SplitReport(
        s4_initial=s4_0, s2_initial=s2_0, max_dev4=dev4, max_dev2=dev2,
        split=(dev4 <= SplitReport.SPLIT_TOL and dev2 <= SplitReport.SPLIT_TOL),
    )
