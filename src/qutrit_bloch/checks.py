"""Named invariant suites behind the ``verify`` command.

Every check measures a residual against a pinned bound. Each check's
statement and bound live in one place, the :data:`CHECKS` table: a suite
reports only a name and a residual, and the tests read the bounds from there.
A suite reports each residual where it computes it, and :class:`SuiteReport`
keeps each check's worst: a NaN, or a check that no run reported, fails.
Suites are pure and deterministic (fixed seeds) and take no parameters. The
random samples come from fixed-seed streams, drawn in the same order as one
sample at a time; the arithmetic on them runs as array calls that give the
same bits as mapping each sample on its own (tests keep the per-sample loops
as the reference). This module is the one implementation of the acceptance
criteria: the acceptance gate (tests/test_acceptance.py) asserts on the
results of these same suites, with the dynamics checks on the figures' own
time grid, so ``verify`` is the installable self-check of the library.

Memory is bounded by a chunk, not by the sample: the state suite maps its
angle samples :data:`CHUNK` at a time, and the dynamics suite propagates each
figure run once, holds that one trajectory at a time, compares the Lambda
closed form with it a chunk at a time, and reads a copy of its every
RK4_STRIDE-th row for the RK4 and kernel checks. Every call on a chunked path
is elementwise, so each residual has the same bits as from the whole array;
the BLAS product inside ``dynamics.propagate_exact`` is not chunked, because
its last bits can depend on how OpenBLAS blocks the rows it is given.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import config, dynamics, figures, model, states, su3
from .model import F_REFERENCE

__all__ = [
    "CHECKS",
    "Check",
    "CheckResult",
    "KERNEL_TOL",
    "SuiteReport",
    "algebra_suite",
    "dynamics_suite",
    "kernel_deviation",
    "oracle_generator",
    "rk4_deviation",
    "state_suite",
    "run_suites",
]

STATE_SEED = 20240801
MIXTURE_SEED = 20240802
SECTOR_SEED = 20240803

#: Pure states drawn from the angle parametrization, random mixtures, and
#: random amplitude triples for the closed-form sector norms.
ANGLE_SAMPLES = 10_000
MIXTURE_SAMPLES = 1_000
SECTOR_SAMPLES = 200

#: The leading angle samples held to rho^2 = rho, and to the Bloch round trip.
PURE_SAMPLES = 1_000
ROUNDTRIP_SAMPLES = 100

#: Angle samples, and figure-grid points of the Lambda closed form, mapped
#: per array call, so at most one chunk's arrays are held at a time.
CHUNK = 1_000

#: The bundled figures' time grid, as ``simulate`` builds it (every figure
#: shares fig1a's t_max and dt); the exact propagator is checked on every
#: point of it.
_FIGURE_RUN = figures.load_figure("fig1a")
T_MAX, DT = _FIGURE_RUN.t_max, _FIGURE_RUN.dt
FIGURE_GRID = np.arange(config.grid_rows(T_MAX, DT)) * DT
FIGURE_GRID.setflags(write=False)  # shared by every caller; trajectories keep it as their times

#: RK4 steps dt and is compared with the exact propagator on every
#: RK4_STRIDE-th grid point (a 0.5 grid).
RK4_STRIDE = 50
RK4_TOL = 1e-6

#: ``simulate``'s rows (``model.row_formula``) against the numpy oracle, as a
#: fraction of each column's scale; see kernel_deviation.
KERNEL_TOL = 1e-11

#: Keep RK4 cross-checks only where the predicted accumulated error is
#: comfortably below the tolerance; see dynamics_suite.
RK4_GUARD_FRACTION = 0.1


class Check(NamedTuple):
    """What a ``verify`` check states, and the bound its residual is held to."""

    statement: str
    bound: float
    comparison: str = "<="  # residual <= bound passes; ">" inverts


#: Every ``verify`` check, in the order ``verify all`` prints them.
CHECKS = {
    "algebra/gellmann-orthogonality": Check("Tr[lam_k lam_l] = 2 delta_kl", 1e-14),
    "algebra/gellmann-hermitian-traceless": Check("lam_k = lam_k^dag, Tr lam_k = 0", 1e-14),
    "algebra/f-table-reference": Check("antisymmetric constants match canonical values", 1e-14),
    "algebra/d-table-reference": Check("symmetric constants match canonical values", 1e-14),
    "algebra/commutator-reconstruction": Check("[lam_l, lam_m] = 2i sum_n f_lmn lam_n", 1e-12),
    "algebra/product-expansion": Check(
        "lam_l lam_m = (2/3) delta_lm + sum_n (d_lmn + i f_lmn) lam_n", 1e-12),
    "algebra/shift-commutators": Check(
        "[X+, X-] = X3, [X+, X3] = -2 X+, [X-, X3] = 2 X- for X in T, V, U", 0.0),
    "algebra/shift-actions": Check("all 27 shift-operator actions on basis states", 0.0),
    "state/parametrization-norm": Check("sum |c_i|^2 = 1 on the angle sample", 1e-14),
    "state/seven-sphere-norm-4/3": Check("pure-state Bloch norm 4/3", 1e-12),
    "state/geometric-trace-map-equivalence": Check(
        "closed form equals Tr[lam rho] componentwise", 1e-12),
    "state/purity-identity": Check("Tr[rho^2] = (1/3)(1 + (3/2) |n|^2) on mixtures", 1e-12),
    "state/purity-bounds": Check("1/3 <= Tr[rho^2] <= 1", 1e-12),
    "state/pure-idempotency": Check("rho^2 = rho for pure states", 1e-12),
    "state/bloch-roundtrip": Check("density <-> Bloch maps invert each other", 1e-12),
    "dynamics/unitarity": Check("amplitude norm 1 on all figure runs", 1e-12),
    "dynamics/bloch-norm-4/3": Check("Bloch norm 4/3 on all figure runs", 1e-9),
    "dynamics/generator-antisymmetry": Check("M + M^T = 0", 1e-14),
    "dynamics/sector-conservation-at-resonance": Check(
        "sector norms constant and equal to closed-form initial values at delta = 0", 1e-9),
    "dynamics/lambda-generator-reference": Check(
        "generated Lambda M matches the derived coefficient table", 1e-15),
    "dynamics/oracle-triangle-rk4": Check(
        f"RK4 (dt={DT:g}) vs exact propagator on resolvable figure runs", RK4_TOL),
    "dynamics/simulate-kernel": Check(
        "simulate's rows vs the eigh oracle, per column scale, on the RK4 grid", KERNEL_TOL),
    "dynamics/lambda-closed-form": Check(
        "closed-form Lambda amplitudes vs exact propagator (delta 0 and 0.2)", 1e-9),
    "dynamics/sector-sum-4/3": Check("closed-form sector norms sum to 4/3", 1e-12),
    "dynamics/lambda-periodicity": Check(
        "resonant Lambda Bloch trajectory repeats after 4 pi / Omega", 1e-8),
    "dynamics/off-resonance-splitting-vanishes": Check(
        "finite detuning must mix the sectors (deviation exceeds threshold)", 1e-3, ">"),
}


class CheckResult(NamedTuple):
    name: str
    residual: float
    check: Check  # the name's CHECKS entry

    @property
    def passed(self) -> bool:
        if self.check.comparison == "<=":
            return self.residual <= self.check.bound
        return self.residual > self.check.bound

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        statement, bound, comparison = self.check
        return (
            f"{status} {self.name} ({statement})"
            f" residual={self.residual:.3e} bound: {comparison} {bound:g}"
        )


class SuiteReport:
    """The checks of some of ``model.VERIFY_SCOPES``, with INFO notes.

    A check reported any number of times keeps the residual that fails worst
    under its :data:`CHECKS` comparison (the largest for ``<=``, the smallest
    for ``>``; a NaN over any number). ``results`` lists the covered scopes'
    CHECKS entries in table order; one never reported reads NaN, so it fails.
    """

    def __init__(self, *scopes: str) -> None:
        self._scopes = list(scopes)
        self.notes: list[str] = []
        self._worst: dict[str, float] = {}

    def add(self, name: str, residual: float) -> None:
        """Report a residual of check ``name``, held to its :data:`CHECKS` entry."""
        worse = np.maximum if CHECKS[name].comparison == "<=" else np.minimum  # NaN wins
        self._worst[name] = float(worse(self._worst.get(name, residual), residual))

    @property
    def results(self) -> list[CheckResult]:
        return [CheckResult(name, self._worst.get(name, math.nan), check)
                for name, check in CHECKS.items() if name.split("/")[0] in self._scopes]

    def extend(self, other: "SuiteReport") -> None:
        self._scopes += other._scopes
        self.notes += other.notes
        for name, residual in other._worst.items():
            self.add(name, residual)


# Canonical nonzero structure constants (one-based indices); F_REFERENCE,
# the antisymmetric ones, lives in ``model``, which builds M from it.
D_REFERENCE = {
    (1, 1, 8): 1.0 / model._SQRT3, (2, 2, 8): 1.0 / model._SQRT3,
    (3, 3, 8): 1.0 / model._SQRT3, (8, 8, 8): -1.0 / model._SQRT3,
    (4, 4, 8): -0.5 / model._SQRT3, (5, 5, 8): -0.5 / model._SQRT3,
    (6, 6, 8): -0.5 / model._SQRT3, (7, 7, 8): -0.5 / model._SQRT3,
    (1, 4, 6): 0.5, (1, 5, 7): 0.5, (2, 4, 7): -0.5, (2, 5, 6): 0.5,
    (3, 4, 4): 0.5, (3, 5, 5): 0.5, (3, 6, 6): -0.5, (3, 7, 7): -0.5,
}

# Shift-operator actions on the basis states: (family, kind) -> for each of
# |1>, |2>, |3> either None (annihilated) or (target state, sign).
SHIFT_ACTIONS = {
    ("T", "plus"): (None, (1, 1.0), None),
    ("T", "minus"): ((2, 1.0), None, None),
    ("T", "three"): ((1, 1.0), (2, -1.0), None),
    ("V", "plus"): (None, None, (1, 1.0)),
    ("V", "minus"): ((3, 1.0), None, None),
    ("V", "three"): ((1, 1.0), None, (3, -1.0)),
    ("U", "plus"): (None, None, (2, 1.0)),
    ("U", "minus"): (None, (3, 1.0), None),
    ("U", "three"): (None, (2, 1.0), (3, -1.0)),
}


def _reference_table(values: dict, antisymmetric: bool) -> np.ndarray:
    table = np.zeros((8, 8, 8))
    table[tuple(np.array(list(values)).T - 1)] = list(values.values())
    return su3._by_sorted_index(table, antisymmetric)


def algebra_suite() -> SuiteReport:
    report = SuiteReport("algebra")
    lam = su3.gellmann_basis()

    gram = su3._gellmann_traces(lam[1:])[:, 1:].real  # Tr[lam_k lam_l], k, l >= 1
    report.add("algebra/gellmann-orthogonality", np.abs(gram - 2.0 * np.eye(8)).max())

    name = "algebra/gellmann-hermitian-traceless"
    report.add(name, np.abs(lam - lam.conj().swapaxes(1, 2)).max())
    report.add(name, np.abs(np.trace(lam[1:], axis1=1, axis2=2)).max())
    report.add(name, abs(np.trace(lam[0]) - 3.0))

    sc = su3.structure_constants()
    report.add("algebra/f-table-reference",
               np.abs(sc.f - _reference_table(F_REFERENCE, True)).max())
    report.add("algebra/d-table-reference",
               np.abs(sc.d - _reference_table(D_REFERENCE, False)).max())

    # products[l, m] = lam_{l+1} lam_{m+1}: one table for both expansions.
    products = lam[1:, None] @ lam[None, 1:]
    recon = 2j * np.einsum("lmn,nij->lmij", sc.f, lam[1:])
    report.add("algebra/commutator-reconstruction",
               np.abs(products - products.swapaxes(0, 1) - recon).max())
    recon = (2.0 / 3.0) * np.eye(8)[:, :, None, None] * lam[0] + np.einsum(
        "lmn,nij->lmij", sc.d + 1j * sc.f, lam[1:]
    )
    report.add("algebra/product-expansion", np.abs(products - recon).max())

    # The T, V and U operators of each kind, stacked; commutator broadcasts.
    plus, minus, three = (
        np.stack([su3.shift_operator(fam, kind) for fam in ("T", "V", "U")])
        for kind in ("plus", "minus", "three")
    )
    name = "algebra/shift-commutators"
    report.add(name, np.abs(su3.commutator(plus, minus) - three).max())
    report.add(name, np.abs(su3.commutator(plus, three) + 2.0 * plus).max())
    report.add(name, np.abs(su3.commutator(minus, three) - 2.0 * minus).max())

    basis_vecs = np.eye(3, dtype=complex)
    for (fam, kind), actions in SHIFT_ACTIONS.items():
        op = su3.shift_operator(fam, kind)
        for src, action in enumerate(actions):
            expected = np.zeros(3, dtype=complex)
            if action is not None:
                target, sign = action
                expected[target - 1] = sign
            report.add("algebra/shift-actions", np.abs(op @ basis_vecs[src] - expected).max())
    return report


def sample_angles(count: int) -> states.AngleParams:
    """Reproducible angle sample, as arrays: theta uniform on [0, pi], phi on [0, 2 pi)."""
    rng = np.random.default_rng(STATE_SEED)
    thetas = rng.uniform(0.0, math.pi, size=(count, 2))
    phis = rng.uniform(0.0, 2.0 * math.pi, size=(count, 2))
    return states.AngleParams(thetas[:, 0], thetas[:, 1], phis[:, 0], phis[:, 1])


def _unit_amplitudes(normals: np.ndarray) -> np.ndarray:
    """Amplitude triples c = (re + i im) / |re + i im| from normals (..., 2, 3).

    Bit for bit ``c / np.linalg.norm(c)`` per triple: norm sums re.re + im.im
    with two dot products, and a batched ``@`` of rows computes the same ones
    (a plain sum or einsum over the last axis rounds differently).
    """
    re, im = normals[..., 0, :], normals[..., 1, :]
    norm_sq = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return (re + 1j * im) / np.sqrt(norm_sq[..., 0])


def random_mixtures(count: int) -> np.ndarray:
    """Random convex mixtures of up to four pure states, plus both extremes.

    Shape (count, 3, 3). Each mixture draws its number of parts, its
    Dirichlet weights and then each part's real and imaginary normals; a
    mixture of fewer than four parts is padded with weight-0 parts.
    """
    rng = np.random.default_rng(MIXTURE_SEED)
    weights = np.zeros((count - 2, 4))
    normals = np.ones((count - 2, 4, 2, 3))  # a padded part gets a finite dummy state
    for i in range(count - 2):
        parts = rng.integers(1, 5)
        weights[i, :parts] = rng.dirichlet(np.ones(parts))
        normals[i, :parts] = rng.normal(size=(parts, 2, 3))
    terms = weights[..., None, None] * states.density_from_state(_unit_amplitudes(normals))
    mixed = terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]  # parts in draw order
    pure = states.density_from_state(_unit_amplitudes(rng.normal(size=(1, 2, 3))))
    return np.concatenate([np.eye(3, dtype=complex)[None] / 3.0, mixed, pure])


def state_suite() -> SuiteReport:
    report = SuiteReport("state")
    angles = sample_angles(ANGLE_SAMPLES)
    for start in range(0, ANGLE_SAMPLES, CHUNK):
        part = slice(start, start + CHUNK)
        chunk = states.AngleParams(
            angles.theta1[part], angles.theta2[part], angles.phi1[part], angles.phi2[part])
        amps = states.state_from_angles(chunk)
        report.add("state/parametrization-norm",
                   np.abs((np.abs(amps) ** 2).sum(axis=1) - 1.0).max())

        geo = states.bloch_geometric(chunk)
        report.add("state/seven-sphere-norm-4/3",
                   np.abs((geo**2).sum(axis=1) - model.BLOCH_NORM_SQ).max())

        mapped = states.bloch_from_amplitudes(amps)
        rhos = states.density_from_state(amps)
        for other in (mapped, states.bloch_from_density(rhos)):
            report.add("state/geometric-trace-map-equivalence", np.abs(geo - other).max())

        if start < PURE_SAMPLES:
            pure = rhos[:PURE_SAMPLES - start]
            report.add("state/pure-idempotency", np.abs(pure @ pure - pure).max())
        if start < ROUNDTRIP_SAMPLES:
            sample = mapped[:ROUNDTRIP_SAMPLES - start]
            back = states.bloch_from_density(states.density_from_bloch(sample))
            report.add("state/bloch-roundtrip", np.abs(back - sample).max())

    mixtures = random_mixtures(MIXTURE_SAMPLES)
    purities = states.purity(mixtures)
    bloch_sq = (states.bloch_from_density(mixtures) ** 2).sum(axis=1)
    report.add("state/purity-identity", np.abs(purities - (1.0 + 1.5 * bloch_sq) / 3.0).max())
    # How far each purity lies outside [1/3, 1]: 0 inside.
    report.add("state/purity-bounds", np.abs(np.clip(purities, 1.0 / 3.0, 1.0) - purities).max())
    return report


def rk4_deviation(p: model.SimParams, exact: dynamics.Trajectory) -> float:
    """Largest Bloch-vector deviation of RK4 (step DT) from ``exact``, on ``exact.times``.

    ``verify`` passes a figure run's RK4 rows: every RK4_STRIDE-th row of its one trajectory.
    """
    rk = dynamics.integrate_bloch_ode(p, exact.times, DT)
    return float(np.abs(rk.bloch - exact.bloch).max())


def oracle_generator(p: model.SimParams) -> np.ndarray:
    """M = 2 einsum(h, f): H's Gell-Mann coefficients with the derived f table."""
    h = su3.gellmann_coefficients(dynamics.rotating_hamiltonian(p))[1:]
    return 2.0 * np.einsum("j,jlk->kl", h, su3.structure_constants().f)


def kernel_deviation(p: model.SimParams, exact: dynamics.Trajectory, rows) -> float:
    """Largest deviation of the table ``rows`` (N, 20) from the numpy oracle on ``exact.times``.

    The oracle is independent of the plain-float row formula ``simulate``
    writes: n and the sector norms (numpy sums) from the ``exact`` trajectory
    of :func:`dynamics.bloch_trajectory` (LAPACK's eigh, complex exp),
    dn = M n with M from :func:`oracle_generator`, and |n|^2 from an einsum.
    Each column's deviation is divided by its own scale, its largest oracle
    magnitude but at least 1.
    """
    bloch = exact.bloch
    reference = np.column_stack([
        exact.times, bloch, bloch @ oracle_generator(p).T, exact.sector4, exact.sector2,
        np.einsum("ij,ij->i", bloch, bloch),
    ])
    scale = np.maximum(np.abs(reference).max(axis=0), 1.0)
    return float((np.abs(np.asarray(rows) - reference) / scale).max())


def _figure_run(report: SuiteReport, label: str, p: model.SimParams) -> None:
    """Report figure run ``label``'s residuals, all read from its one trajectory on FIGURE_GRID.

    The Lambda closed form is compared a chunk at a time on lambda@0 and
    lambda@0.2. The kernel and RK4 checks read a copy of every RK4_STRIDE-th
    row, taken before the full grid's arrays are dropped.
    """
    traj = dynamics.bloch_trajectory(p, FIGURE_GRID)
    report.add("dynamics/unitarity", np.abs((np.abs(traj.amplitudes) ** 2).sum(axis=1) - 1.0).max())
    report.add("dynamics/bloch-norm-4/3",
               np.abs((traj.bloch**2).sum(axis=1) - model.BLOCH_NORM_SQ).max())
    split = dynamics.resonance_split_check(p, traj)
    sector = np.max([split.max_dev4, split.max_dev2])
    if p.delta == 0.0:
        report.add("dynamics/sector-conservation-at-resonance", sector)
    if label in ("lambda@0", "lambda@0.2"):
        for start in range(0, FIGURE_GRID.size, CHUNK):
            part = slice(start, start + CHUNK)
            closed = dynamics.lambda_closed_form(p, FIGURE_GRID[part])
            report.add("dynamics/lambda-closed-form", np.abs(closed - traj.amplitudes[part]).max())
    rk4_rows = dynamics.Trajectory(*(a[::RK4_STRIDE].copy() for a in (
        traj.times, traj.amplitudes, traj.bloch, traj.sector4, traj.sector2)))
    del traj

    m = dynamics.adjoint_generator(p)
    report.add("dynamics/generator-antisymmetry", np.abs(m + m.T).max())
    if label == "lambda@1.2":
        # Either sector mixed is enough, so the larger deviation is held to the bound.
        report.add("dynamics/off-resonance-splitting-vanishes", sector)
        report.add("dynamics/lambda-generator-reference",
                   np.abs(m - lambda_generator_reference(p)).max())

    row = model.row_formula(p)  # read through the module, so tests can patch it
    report.add("dynamics/simulate-kernel",
               kernel_deviation(p, rk4_rows, [row(t) for t in rk4_rows.times.tolist()]))
    dev = rk4_deviation(p, rk4_rows)
    theta, estimate = dynamics.rk4_error_estimate(p, DT, T_MAX)
    if estimate > RK4_GUARD_FRACTION * RK4_TOL:
        report.notes.append(
            f"dynamics/oracle-triangle-rk4: {label} skipped at dt={DT:g}:"
            f" step angle {theta:.2g} predicts accumulated error {estimate:.1e}"
            f" (measured {dev:.1e}); fixed-step RK4 cannot meet {RK4_TOL:g}"
            f" at this operating point. See docs/derivation_notes.md."
        )
    else:
        report.add("dynamics/oracle-triangle-rk4", dev)


def dynamics_suite() -> SuiteReport:
    report = SuiteReport("dynamics")
    sets = figures.parameter_sets()
    for label, p in sets.items():
        _figure_run(report, label, p)

    rng = np.random.default_rng(SECTOR_SEED)
    amps = _unit_amplitudes(rng.normal(size=(SECTOR_SAMPLES, 2, 3)))
    for topology in model.Configuration:
        s4, s2 = dynamics._sector_polynomials(topology, amps)
        report.add("dynamics/sector-sum-4/3", np.abs(s4 + s2 - model.BLOCH_NORM_SQ).max())

    p0 = sets["lambda@0"]
    period = 4.0 * math.pi / dynamics.rabi_frequency(p0)
    for t in (0.0, 1.0, 2.5, 7.7, 20.0, 50.0):
        n_pair = dynamics.bloch_trajectory(p0, np.array([t, t + period])).bloch
        report.add("dynamics/lambda-periodicity", np.linalg.norm(n_pair[1] - n_pair[0]))
    return report


def lambda_generator_reference(p) -> np.ndarray:
    """Hand-derived adjoint generator of the Lambda configuration.

    Independent of the structure-constant machinery: the table below comes
    from evaluating -i Tr[lam_k [H, rho]] entry by entry (see
    docs/derivation_notes.md for the derivation).
    """
    if p.config is not model.Configuration.LAMBDA:
        raise ValueError("reference table is for the Lambda configuration")
    g = p.coupling_gain
    k13, k23, d = p.kappa_a, p.kappa_b, p.delta
    m = np.zeros((8, 8))

    def pair(k: int, l: int, v: float) -> None:
        m[k - 1, l - 1] = v
        m[l - 1, k - 1] = -v

    pair(1, 2, -d)
    pair(1, 7, g * k13)
    pair(2, 3, -2.0 * g * k23)
    pair(2, 6, g * k13)
    pair(3, 5, g * k13)
    pair(4, 5, -d)
    pair(4, 7, -g * k23)
    pair(5, 6, g * k23)
    pair(5, 8, -model._SQRT3 * g * k13)
    return m


def run_suites(scope: str = "all") -> SuiteReport:
    """Run one suite of ``model.VERIFY_SCOPES`` by name, or ``all`` of them in its order.

    Scope ``name`` runs this module's ``<name>_suite`` as it is when called,
    so a suite patched or wrapped on the module is the one that runs.
    """
    if scope not in model.VERIFY_SCOPES:
        raise ValueError(f"unknown verify scope {scope!r}")
    report = SuiteReport()
    for name in model.VERIFY_SCOPES[:-1] if scope == "all" else [scope]:
        report.extend(globals()[f"{name}_suite"]())
    return report
