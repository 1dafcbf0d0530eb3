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

Overflow has one rule here, as in ``simulate``: an entry point computes with
numpy's floating-point errors ignored and hands its result to :func:`_finite`,
which raises ValueError naming the result if an entry is not finite (an
overflowing input, or a NaN time). A float ``**`` that overflows counts as an
infinite result. :func:`rk4_error_estimate` alone returns ``inf``: it is an
unbounded estimate, not a result.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import model
from .model import Configuration, SimParams, sector_index_sets
from .states import bloch_from_amplitudes
from .su3 import _readonly, _real_part

__all__ = [
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
    "sector_initial_norms",
]

#: Residue ceiling for the closed-form sector norm polynomials.
SECTOR_IMAG_TOL = 1e-10


def _finite(values, what: str):
    """``values`` unchanged, or ValueError naming ``what`` if an entry is not finite.

    The layer's one overflow rule (see the module docstring).
    """
    if not np.isfinite(values).all():
        raise ValueError(f"{what} is not finite")
    return values


def _quiet(func):
    """``func`` run with numpy's floating-point errors ignored: :func:`_finite` judges its result."""
    @functools.wraps(func)
    def run(*args, **kwargs):
        with np.errstate(all="ignore"):
            return func(*args, **kwargs)
    return run


def rotating_hamiltonian(p: SimParams) -> np.ndarray:
    """Real symmetric rotating-frame Hamiltonian at equal detuning, (3, 3).

    The entries are :func:`model.hamiltonian`'s. An overflowing entry raises ValueError.
    """
    return _finite(np.array(model.hamiltonian(p)), "Hamiltonian H")


def rabi_frequency(p: SimParams) -> float:
    """Generalized Rabi frequency sqrt(delta^2 + kappa_a^2 + kappa_b^2).

    A square past the float range raises ValueError.
    """
    try:
        omega = math.sqrt(p.delta**2 + p.kappa_a**2 + p.kappa_b**2)
    except OverflowError:  # float ** raises where * would round to inf
        omega = math.inf
    return _finite(omega, "Rabi frequency")


@_quiet
def propagate_exact(p: SimParams, times: np.ndarray) -> np.ndarray:
    """Amplitudes c(t) = exp(-i H t) c0 via eigendecomposition, shape (N, 3).

    H is real symmetric, so the eigendecomposition is orthogonal and the
    propagation is unitary to machine precision at every time. The phases
    exp(-i E t) are formed and weighted in one (N, 3) array, in place.
    An overflowing input raises ValueError: a non-finite H entry (from
    :func:`rotating_hamiltonian`) or a phase E t past the float range, which
    leaves NaN amplitudes.
    """
    times = _ascending(times)
    energies, vectors = np.linalg.eigh(rotating_hamiltonian(p))
    weights = vectors.T @ np.array(p.c0)
    phases = -1j * np.outer(times, energies)
    np.exp(phases, out=phases)
    phases *= weights
    return _finite(phases @ vectors.T, "propagated amplitude c(t)")


@_quiet
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
    gives shape (3,); an array of times gives (N, 3). An overflowing Omega or
    a non-finite amplitude (an overflowing phase, or a NaN time) raises ValueError.
    """
    if p.config is not Configuration.LAMBDA:
        raise ValueError(f"closed form requires the Lambda configuration, got {p.config.value}")
    if p.coupling_convention != "half":
        raise ValueError("closed form is only valid in the half coupling convention")
    omega = rabi_frequency(p)  # a finite Omega leaves K2 finite too
    k13, k23, d = p.kappa_a, p.kappa_b, p.delta
    ksq = k13**2 + k23**2
    if ksq == 0.0:
        raise ValueError("closed form requires a nonzero coupling")
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
    return _finite(np.stack([c1, c2, c3], axis=-1), "closed-form amplitude c(t)")


def adjoint_generator(p: SimParams) -> np.ndarray:
    """M_kl = 2 sum_j h_j f_jlk of the rotating Hamiltonian, (8, 8) and read-only.

    The 28 nonzero entries are :func:`model.generator_entries`'. Because the
    f table is totally antisymmetric, M comes out exactly antisymmetric, so
    the integrated Bloch norm is conserved by the flow it generates. An
    overflowing entry raises ValueError.
    """
    m = np.zeros((8, 8))
    for (k, l), value in model.generator_entries(model.hamiltonian(p)).items():
        m[k - 1, l - 1] = value
    return _readonly(_finite(m, "adjoint generator M"))


def _sector_norms(bloch: np.ndarray, config: Configuration) -> tuple[np.ndarray, np.ndarray]:
    set4, set2 = sector_index_sets(config)
    i4 = [i - 1 for i in set4]
    i2 = [i - 1 for i in set2]
    b = np.atleast_2d(bloch)
    return (b[:, i4] ** 2).sum(axis=1), (b[:, i2] ** 2).sum(axis=1)


class Trajectory(NamedTuple):
    """Time grid plus the amplitudes, Bloch vectors and sector norms on it.

    The numpy counterpart of ``simulate``'s table (:func:`model.row_formula`);
    ``verify``'s kernel and RK4 checks read every ``checks.RK4_STRIDE``-th row
    of a figure run's one trajectory (``checks.kernel_deviation`` forms dn/dt = M n).
    ``amplitudes`` is None for RK4's, which never touches amplitudes. Its
    fields are arrays, so it compares and hashes by identity.
    """

    times: np.ndarray
    amplitudes: np.ndarray | None
    bloch: np.ndarray
    sector4: np.ndarray
    sector2: np.ndarray

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _ascending(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a nonempty 1-D array")
    if not np.isfinite(times).all():
        raise ValueError("time grid must be finite")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("time grid must be strictly ascending")
    return times


def bloch_trajectory(p: SimParams, times: np.ndarray) -> Trajectory:
    """Exact-propagator trajectory: amplitudes, Bloch vectors, sector norms."""
    times = np.asarray(times, dtype=float)  # propagate_exact checks the grid
    amps = propagate_exact(p, times)
    bloch = bloch_from_amplitudes(amps)
    return Trajectory(times, amps, bloch, *_sector_norms(bloch, p.config))


@_quiet
def integrate_bloch_ode(p: SimParams, times: np.ndarray, dt: float) -> Trajectory:
    """Fixed-step classical RK4 integration of dn/dt = M n from n(0).

    ``times`` is the output grid; it starts at 0, and every grid interval must
    be an integer multiple of the step ``dt`` (no interpolation, no adaptivity).
    The integration is purely Bloch-space: amplitudes are not tracked.

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

    Past the stability bound rho(M) dt > 2 sqrt(2) a step amplifies the
    fastest mode, and a run that overflows raises ValueError (section 9).
    """
    times = _ascending(times)
    if times[0] != 0.0:
        raise ValueError(f"RK4 starts from n(0): the time grid must start at 0, got {times[0]}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    gaps = np.diff(times)
    if gaps.size and dt > gaps.min() * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} exceeds the smallest grid spacing {gaps.min()}")
    steps = np.rint(gaps / dt)  # an overflowing count is refused next
    if not steps.max(initial=0.0) < 2.0**63:
        raise ValueError(f"a grid interval of {steps.max():.6g} steps of dt={dt} "
                         "exceeds the int64 step count")
    steps = steps.astype(np.int64)
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
    n = bloch_from_amplitudes(np.array(p.c0))
    out = np.empty((times.size, 8))
    out[0] = n
    for i, count in enumerate(steps.tolist()):
        if count not in powers:
            powers[count] = np.linalg.matrix_power(step, count)
        n = powers[count] @ n
        out[i + 1] = n
    # Finite sector norms mean finite components: together they sum all eight squares.
    return Trajectory(times, None, out, *_finite(_sector_norms(out, p.config), "RK4 trajectory"))


def rk4_error_estimate(p: SimParams, dt: float, t_max: float) -> tuple[float, float]:
    """RK4 step angle rho(M) dt and predicted accumulated error up to ``t_max``.

    The eigenvalues of the adjoint generator M are +-i (E_i - E_j) and zeros,
    with E the eigenvalues of the rotating Hamiltonian, so the spectral
    radius rho(M) is E_max - E_min, read from :func:`model.eigenpairs`, the
    spectrum ``simulate``'s rows are built from. The error is the per-step
    defect (rho(M) dt)^5 / 120 times the step count
    (docs/derivation_notes.md, section 9). A ``dt`` that is not positive
    raises ValueError, as in :func:`integrate_bloch_ode`, and so does a
    ``t_max`` that is negative or not finite. The error is 0 where the step
    count or the fifth power is 0 (an underflow too), and infinite where the
    fifth power overflows.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max}")
    (e_min, _, e_max), _ = model.eigenpairs(model.hamiltonian(p))
    theta = (e_max - e_min) * dt
    try:
        power = theta**5
    except OverflowError:  # float ** raises where * would round to inf
        power = math.inf
    steps = t_max / dt
    if steps == 0.0 or power == 0.0:  # not 0 * inf, which is nan
        return theta, 0.0
    return theta, steps * power / 120.0


def sector_initial_norms(p: SimParams) -> tuple[float, float]:
    """Closed-form initial sector norms as polynomials in the amplitudes.

    These are the expansions of sum_{k in sector} n_k(0)^2 in terms of
    (c10, c20, c30) and their conjugates; they hold for arbitrary complex
    normalized amplitudes and always sum to 4/3. Raises
    :class:`ConsistencyError` if the evaluated polynomials pick up an
    imaginary residue above 1e-10.
    """
    s4, s2 = _sector_polynomials(p.config, np.array([p.c0]))
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

    return tuple(_real_part(np.stack([s4, s2]), "sector norms", SECTOR_IMAG_TOL))


class SplitReport(NamedTuple):
    """Deviation of the sector norms from their initial values over a run."""

    s4_initial: float
    s2_initial: float
    max_dev4: float
    max_dev2: float
    split: bool

    #: Both deviations at or below this bound count as a conserved split.
    SPLIT_TOL = 1e-6


def resonance_split_check(p: SimParams, traj: Trajectory) -> SplitReport:
    """Measure how well the two sector norms of ``p``'s run ``traj`` are conserved.

    The report flags ``split`` when both sector norms stay within 1e-6 of
    their closed-form initial values (:func:`sector_initial_norms`), which is
    the resonance signature; any finite detuning mixes the sectors and the
    flag drops to False.
    """
    s4_0, s2_0 = sector_initial_norms(p)
    dev4 = float(np.abs(traj.sector4 - s4_0).max())
    dev2 = float(np.abs(traj.sector2 - s2_0).max())
    return SplitReport(
        s4_initial=s4_0, s2_initial=s2_0, max_dev4=dev4, max_dev2=dev2,
        split=(dev4 <= SplitReport.SPLIT_TOL and dev2 <= SplitReport.SPLIT_TOL),
    )
