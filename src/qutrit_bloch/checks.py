"""Named invariant suites behind the ``verify`` command.

Every check measures a residual against a pinned tolerance; suites are pure
and deterministic (fixed seeds) and take no parameters. The random samples
come from fixed-seed streams, drawn in the same order as one sample at a
time; the arithmetic on them runs as array calls that give the same bits as
mapping each sample on its own (tests keep the per-sample loops as the
reference). This module is the
one implementation of the acceptance criteria: the acceptance gate
(tests/test_acceptance.py) asserts on the results of these same suites, with
the dynamics checks on the figures' own dt = 0.01 grid, so ``verify`` is the
installable self-check of the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, figures, states, su3

__all__ = [
    "CheckResult",
    "SuiteReport",
    "algebra_suite",
    "dynamics_suite",
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

#: The bundled figures' time grid (t_max = 100, dt = 0.01); the exact
#: propagator is checked on every point of it.
T_MAX, DT = 100.0, 0.01
FIGURE_GRID = np.arange(0.0, T_MAX + DT / 2.0, DT)
FIGURE_GRID.setflags(write=False)  # shared by every caller; trajectories keep it as their times

#: RK4 steps dt and is compared with the exact propagator on every
#: RK4_STRIDE-th grid point (a 0.5 grid).
RK4_STRIDE = 50
RK4_TOL = 1e-6

#: Keep RK4 cross-checks only where the predicted accumulated error is
#: comfortably below the tolerance; see dynamics_suite.
RK4_GUARD_FRACTION = 0.1


@dataclass(frozen=True)
class CheckResult:
    name: str
    description: str
    residual: float
    tolerance: float
    comparison: str = "<="  # residual <= tolerance passes; ">" inverts

    @property
    def passed(self) -> bool:
        if self.comparison == "<=":
            return self.residual <= self.tolerance
        return self.residual > self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name} ({self.description})"
            f" residual={self.residual:.3e} bound: {self.comparison} {self.tolerance:g}"
        )


@dataclass
class SuiteReport:
    results: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def extend(self, other: "SuiteReport") -> None:
        self.results.extend(other.results)
        self.notes.extend(other.notes)


# Canonical nonzero structure constants (one-based indices).
F_REFERENCE = {
    (1, 2, 3): 1.0,
    (1, 4, 7): 0.5, (1, 5, 6): -0.5,
    (2, 4, 6): 0.5, (2, 5, 7): 0.5,
    (3, 4, 5): 0.5, (3, 6, 7): -0.5,
    (4, 5, 8): math.sqrt(3.0) / 2.0, (6, 7, 8): math.sqrt(3.0) / 2.0,
}
D_REFERENCE = {
    (1, 1, 8): 1.0 / math.sqrt(3.0), (2, 2, 8): 1.0 / math.sqrt(3.0),
    (3, 3, 8): 1.0 / math.sqrt(3.0), (8, 8, 8): -1.0 / math.sqrt(3.0),
    (4, 4, 8): -0.5 / math.sqrt(3.0), (5, 5, 8): -0.5 / math.sqrt(3.0),
    (6, 6, 8): -0.5 / math.sqrt(3.0), (7, 7, 8): -0.5 / math.sqrt(3.0),
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
    for (l, m, n), v in values.items():
        triple = (l - 1, m - 1, n - 1)
        for perm, sign in su3.PERMUTATION_SIGN.items():
            table[tuple(triple[i] for i in perm)] = v * (sign if antisymmetric else 1.0)
    return table


def algebra_suite() -> SuiteReport:
    report = SuiteReport()
    lam = su3.gellmann_basis()

    gram = np.array(
        [[np.trace(lam[k] @ lam[l]).real for l in range(1, 9)] for k in range(1, 9)]
    )
    report.results.append(CheckResult(
        "algebra/gellmann-orthogonality", "Tr[lam_k lam_l] = 2 delta_kl",
        float(np.abs(gram - 2.0 * np.eye(8)).max()), 1e-14,
    ))

    herm = max(np.abs(m - m.conj().T).max() for m in lam)
    traces = max(abs(np.trace(lam[k])) for k in range(1, 9))
    report.results.append(CheckResult(
        "algebra/gellmann-hermitian-traceless", "lam_k = lam_k^dag, Tr lam_k = 0",
        float(max(herm, traces, abs(np.trace(lam[0]) - 3.0))), 1e-14,
    ))

    sc = su3.structure_constants()
    report.results.append(CheckResult(
        "algebra/f-table-reference", "antisymmetric constants match canonical values",
        float(np.abs(sc.f - _reference_table(F_REFERENCE, True)).max()), 1e-14,
    ))
    report.results.append(CheckResult(
        "algebra/d-table-reference", "symmetric constants match canonical values",
        float(np.abs(sc.d - _reference_table(D_REFERENCE, False)).max()), 1e-14,
    ))

    generators = np.stack(lam[1:])
    worst = 0.0
    for l in range(8):
        for m in range(8):
            recon = 2j * np.einsum("n,nij->ij", sc.f[l, m], generators)
            worst = max(worst, np.abs(su3.commutator(lam[l + 1], lam[m + 1]) - recon).max())
    report.results.append(CheckResult(
        "algebra/commutator-reconstruction", "[lam_l, lam_m] = 2i sum_n f_lmn lam_n",
        float(worst), 1e-12,
    ))

    worst = 0.0
    for l in range(8):
        for m in range(8):
            recon = (2.0 / 3.0) * (l == m) * lam[0] + np.einsum(
                "n,nij->ij", sc.d[l, m] + 1j * sc.f[l, m], generators
            )
            worst = max(worst, np.abs(lam[l + 1] @ lam[m + 1] - recon).max())
    report.results.append(CheckResult(
        "algebra/product-expansion",
        "lam_l lam_m = (2/3) delta_lm + sum_n (d_lmn + i f_lmn) lam_n",
        float(worst), 1e-12,
    ))

    worst = 0.0
    for fam in ("T", "V", "U"):
        plus = su3.shift_operator(fam, "plus")
        minus = su3.shift_operator(fam, "minus")
        three = su3.shift_operator(fam, "three")
        worst = max(worst, np.abs(su3.commutator(plus, minus) - three).max())
        worst = max(worst, np.abs(su3.commutator(plus, three) + 2.0 * plus).max())
        worst = max(worst, np.abs(su3.commutator(minus, three) - 2.0 * minus).max())
    report.results.append(CheckResult(
        "algebra/shift-commutators",
        "[X+, X-] = X3, [X+, X3] = -2 X+, [X-, X3] = 2 X- for X in T, V, U",
        float(worst), 0.0,
    ))

    basis_vecs = np.eye(3, dtype=complex)
    worst = 0.0
    for (fam, kind), actions in SHIFT_ACTIONS.items():
        op = su3.shift_operator(fam, kind)
        for src, action in enumerate(actions):
            expected = np.zeros(3, dtype=complex)
            if action is not None:
                target, sign = action
                expected[target - 1] = sign
            worst = max(worst, np.abs(op @ basis_vecs[src] - expected).max())
    report.results.append(CheckResult(
        "algebra/shift-actions", "all 27 shift-operator actions on basis states",
        float(worst), 0.0,
    ))
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
    report = SuiteReport()
    angles = sample_angles(ANGLE_SAMPLES)
    amps = states.state_from_angles(angles)

    norms = np.abs((np.abs(amps) ** 2).sum(axis=1) - 1.0)
    report.results.append(CheckResult(
        "state/parametrization-norm", "sum |c_i|^2 = 1 on the angle sample",
        float(norms.max()), 1e-14,
    ))

    geo = states.bloch_geometric(angles)
    report.results.append(CheckResult(
        "state/seven-sphere-norm-4/3", "pure-state Bloch norm 4/3",
        float(np.abs((geo**2).sum(axis=1) - states.BLOCH_NORM_SQ).max()), 1e-12,
    ))

    mapped = states.bloch_from_amplitudes(amps)
    traced = states.bloch_from_density(states.density_from_state(amps))
    report.results.append(CheckResult(
        "state/geometric-trace-map-equivalence",
        "closed form equals Tr[lam rho] componentwise",
        float(max(np.abs(geo - mapped).max(), np.abs(geo - traced).max())), 1e-12,
    ))

    rhos = random_mixtures(MIXTURE_SAMPLES)
    purities = states.purity(rhos)
    bloch_sq = (states.bloch_from_density(rhos) ** 2).sum(axis=1)
    report.results.append(CheckResult(
        "state/purity-identity", "Tr[rho^2] = (1/3)(1 + (3/2) |n|^2) on mixtures",
        float(np.abs(purities - (1.0 + 1.5 * bloch_sq) / 3.0).max()), 1e-12,
    ))
    bound_violation = max(0.0, float(purities.max() - 1.0), float(1.0 / 3.0 - purities.min()))
    report.results.append(CheckResult(
        "state/purity-bounds", "1/3 <= Tr[rho^2] <= 1",
        bound_violation, 1e-12,
    ))

    pure = states.density_from_state(amps[:1000])
    report.results.append(CheckResult(
        "state/pure-idempotency", "rho^2 = rho for pure states",
        float(np.abs(pure @ pure - pure).max()), 1e-12,
    ))

    sample = mapped[:100]
    roundtrip = states.bloch_from_density(states.density_from_bloch(sample))
    report.results.append(CheckResult(
        "state/bloch-roundtrip", "density <-> Bloch maps invert each other",
        float(np.abs(roundtrip - sample).max()), 1e-12,
    ))
    return report


def rk4_deviation(p: dynamics.SimParams) -> float:
    """Largest Bloch-vector deviation of RK4 (step DT) from the exact propagator.

    Compared on every RK4_STRIDE-th point of FIGURE_GRID, up to T_MAX.
    """
    times = FIGURE_GRID[::RK4_STRIDE]
    rk = dynamics.integrate_bloch_ode(p, times, DT)
    exact = dynamics.bloch_trajectory(p, times)
    return float(np.abs(rk.bloch - exact.bloch).max())


def dynamics_suite() -> SuiteReport:
    report = SuiteReport()
    sets = figures.parameter_sets()

    unit = norm = antisym = sector_dev = closed_dev = off_dev = 0.0
    # One figure run at a time: all seven on this grid would hold 14 MB.
    for label, p in sets.items():
        traj = dynamics.bloch_trajectory(p, FIGURE_GRID)
        unit = max(unit, np.abs((np.abs(traj.amplitudes) ** 2).sum(axis=1) - 1.0).max())
        norm = max(norm, np.abs((traj.bloch**2).sum(axis=1) - states.BLOCH_NORM_SQ).max())
        m = dynamics.adjoint_generator(p)
        antisym = max(antisym, np.abs(m + m.T).max())
        s4_0, s2_0 = dynamics.sector_initial_norms(p)
        sector = max(np.abs(traj.sector4 - s4_0).max(), np.abs(traj.sector2 - s2_0).max())
        if p.delta == 0.0:
            sector_dev = max(sector_dev, sector)
        if label == "lambda@1.2":
            off_dev = sector
        if label in ("lambda@0", "lambda@0.2"):
            closed = dynamics.lambda_closed_form(p, FIGURE_GRID)
            closed_dev = max(closed_dev, np.abs(closed - traj.amplitudes).max())
    report.results.append(CheckResult(
        "dynamics/unitarity", "amplitude norm 1 on all figure runs",
        float(unit), 1e-12,
    ))
    report.results.append(CheckResult(
        "dynamics/bloch-norm-4/3", "Bloch norm 4/3 on all figure runs",
        float(norm), 1e-9,
    ))
    report.results.append(CheckResult(
        "dynamics/generator-antisymmetry", "M + M^T = 0",
        float(antisym), 1e-14,
    ))
    report.results.append(CheckResult(
        "dynamics/sector-conservation-at-resonance",
        "sector norms constant and equal to closed-form initial values at delta = 0",
        float(sector_dev), 1e-9,
    ))

    p_lambda = sets["lambda@1.2"]
    m_ref = lambda_generator_reference(p_lambda)
    report.results.append(CheckResult(
        "dynamics/lambda-generator-reference",
        "generated Lambda M matches the derived coefficient table",
        float(np.abs(dynamics.adjoint_generator(p_lambda) - m_ref).max()), 1e-15,
    ))

    worst_rk4 = 0.0
    for label, p in sets.items():
        theta, estimate = dynamics.rk4_error_estimate(p, DT, T_MAX)
        dev = rk4_deviation(p)
        if estimate > RK4_GUARD_FRACTION * RK4_TOL:
            report.notes.append(
                f"dynamics/oracle-triangle-rk4: {label} skipped at dt={DT:g}:"
                f" step angle {theta:.2g} predicts accumulated error {estimate:.1e}"
                f" (measured {dev:.1e}); fixed-step RK4 cannot meet {RK4_TOL:g}"
                f" at this operating point. See docs/derivation_notes.md."
            )
        else:
            worst_rk4 = max(worst_rk4, dev)
    report.results.append(CheckResult(
        "dynamics/oracle-triangle-rk4",
        f"RK4 (dt={DT:g}) vs exact propagator on resolvable figure runs",
        worst_rk4, RK4_TOL,
    ))

    report.results.append(CheckResult(
        "dynamics/lambda-closed-form",
        "closed-form Lambda amplitudes vs exact propagator (delta 0 and 0.2)",
        float(closed_dev), 1e-9,
    ))

    rng = np.random.default_rng(SECTOR_SEED)
    amps = _unit_amplitudes(rng.normal(size=(SECTOR_SAMPLES, 2, 3)))
    worst = 0.0
    for config in dynamics.Configuration:
        s4, s2 = dynamics._sector_polynomials(config, amps)
        worst = max(worst, np.abs(s4 + s2 - states.BLOCH_NORM_SQ).max())
    report.results.append(CheckResult(
        "dynamics/sector-sum-4/3", "closed-form sector norms sum to 4/3",
        float(worst), 1e-12,
    ))

    p0 = sets["lambda@0"]
    period = 4.0 * math.pi / dynamics.rabi_frequency(p0)
    worst = 0.0
    for t in (0.0, 1.0, 2.5, 7.7, 20.0, 50.0):
        n_pair = dynamics.bloch_trajectory(p0, np.array([t, t + period])).bloch
        worst = max(worst, float(np.linalg.norm(n_pair[1] - n_pair[0])))
    report.results.append(CheckResult(
        "dynamics/lambda-periodicity",
        "resonant Lambda Bloch trajectory repeats after 4 pi / Omega",
        float(worst), 1e-8,
    ))

    report.results.append(CheckResult(
        "dynamics/off-resonance-splitting-vanishes",
        "finite detuning must mix the sectors (deviation exceeds threshold)",
        float(off_dev), 1e-3, comparison=">",
    ))
    return report


def lambda_generator_reference(p) -> np.ndarray:
    """Hand-derived adjoint generator of the Lambda configuration.

    Independent of the structure-constant machinery: the table below comes
    from evaluating -i Tr[lam_k [H, rho]] entry by entry (see
    docs/derivation_notes.md for the derivation).
    """
    if p.config is not dynamics.Configuration.LAMBDA:
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
    pair(5, 8, -math.sqrt(3.0) * g * k13)
    return m


_SUITES = {
    "algebra": algebra_suite,
    "state": state_suite,
    "dynamics": dynamics_suite,
}


def run_suites(scope: str = "all") -> SuiteReport:
    """Run one named suite or all of them, in a fixed order."""
    if scope != "all" and scope not in _SUITES:
        raise ValueError(f"unknown verify scope {scope!r}")
    names = list(_SUITES) if scope == "all" else [scope]
    report = SuiteReport()
    for name in names:
        report.extend(_SUITES[name]())
    return report
