"""The simulation model in plain Python floats.

Everything ``simulate`` needs to compute a table lives here, and this module
imports no numpy, at any depth: the run parameters, the rotating-frame
Hamiltonian, its eigenpairs (a cyclic Jacobi solver), the adjoint generator M
from the structure constants, the sector index sets, and the formula of one
table row. A row's bits depend only on libm's ``cos`` and ``sin``: the rest is
``+ - * /`` and ``sqrt``, which IEEE arithmetic rounds alike everywhere.

Also here, because the command line needs them before it imports numpy:
the cardinal state angles and the ``verify`` scope names. Each shared name
(the tolerances, the 4/3 norm, the cardinal labels, the structure-constant
references, the configurations) is defined here and read from here:
``su3``, ``states`` and ``dynamics`` import what they use of it but do not
re-export it.
"""

from __future__ import annotations

import math
from enum import Enum

__all__ = [
    "ATOL_EXACT",
    "ATOL_NUMERIC",
    "BLOCH_NORM_SQ",
    "CARDINAL_ANGLES",
    "CARDINAL_LABELS",
    "COUPLING_CONVENTIONS",
    "Configuration",
    "F_REFERENCE",
    "JACOBI_SWEEPS",
    "PERMUTATION_SIGN",
    "SimParams",
    "VERIFY_SCOPES",
    "eigenpairs",
    "generator_entries",
    "hamiltonian",
    "row_formula",
    "sector_index_sets",
]

#: Tolerance for identities that are exact in exact arithmetic.
ATOL_EXACT = 1e-14
#: Tolerance for identities reached through compounded floating arithmetic.
ATOL_NUMERIC = 1e-12

#: Squared Bloch norm of every pure qutrit state.
BLOCH_NORM_SQ = 4.0 / 3.0

_SQRT3 = math.sqrt(3.0)

#: Sign of each permutation of (0, 1, 2): +1 if even, -1 if odd.
PERMUTATION_SIGN = {
    (0, 1, 2): 1.0, (0, 2, 1): -1.0, (1, 0, 2): -1.0,
    (1, 2, 0): 1.0, (2, 0, 1): 1.0, (2, 1, 0): -1.0,
}

#: Canonical nonzero structure constants f_lmn (one-based indices); every
#: other nonzero entry follows by total antisymmetry.
F_REFERENCE = {
    (1, 2, 3): 1.0,
    (1, 4, 7): 0.5, (1, 5, 6): -0.5,
    (2, 4, 6): 0.5, (2, 5, 7): 0.5,
    (3, 4, 5): 0.5, (3, 6, 7): -0.5,
    (4, 5, 8): _SQRT3 / 2.0, (6, 7, 8): _SQRT3 / 2.0,
}

#: Angle tuples (theta1, theta2) of the cardinal states and their equal-weight
#: superpositions, with both azimuthal phases fixed to zero. ``superpose13``
#: uses (pi/2, 0), the unique polar tuple that yields the 1-3 superposition
#: under the parametrization of ``states``.
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

#: The ``verify`` scopes: one suite by name, or all of them in this order.
#: The only list of them: ``checks.run_suites`` runs ``checks.<name>_suite``.
VERIFY_SCOPES = ("algebra", "state", "dynamics", "all")


class Configuration(Enum):
    """Coupling topology of the driven three-level system."""

    LAMBDA = "lambda"
    VEE = "vee"
    XI = "xi"


_EQUAL_POPULATIONS = (
    complex(1.0 / _SQRT3), complex(1.0 / _SQRT3), complex(1.0 / _SQRT3),
)

#: Coupling conventions: off-diagonals carry kappa/2 (``half``) or kappa (``full``).
COUPLING_CONVENTIONS = ("half", "full")


class _Record:
    """A frozen value record over ``__slots__``: what ``@dataclass(frozen=True)``
    gave, without importing ``dataclasses`` (which imports ``inspect``).

    A subclass lists its fields in ``__slots__``, in constructor order, and
    sets them once with :meth:`_fill`. Assignment raises AttributeError;
    records of the same type with equal fields are equal and hash alike; the
    repr is the dataclass one; a copy or a pickle rebuilds through
    ``__init__``, so it passes the same validation.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class SimParams(_Record):
    """Inputs of one rotating-frame simulation at equal detuning.

    ``kappa_a`` and ``kappa_b`` are the two drive couplings; their physical
    names depend on the configuration (README, "Run configuration format").
    ``delta`` is the shared detuning. ``coupling_convention`` selects whether
    the Hamiltonian off-diagonals carry kappa/2 (``half``, the default) or
    bare kappa (``full``).
    """

    __slots__ = ("config", "kappa_a", "kappa_b", "delta", "c0", "coupling_convention")

    def __init__(self, config: Configuration | str, kappa_a: float, kappa_b: float, delta: float,
                 c0: tuple[complex, complex, complex] = _EQUAL_POPULATIONS,
                 coupling_convention: str = "half") -> None:
        config = Configuration(config)  # a member, or its value such as "lambda"
        for name, v in (("kappa_a", kappa_a), ("kappa_b", kappa_b)):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if not math.isfinite(delta):
            raise ValueError(f"delta must be finite, got {delta}")
        if coupling_convention not in COUPLING_CONVENTIONS:
            raise ValueError(
                f"coupling_convention must be one of {', '.join(COUPLING_CONVENTIONS)},"
                f" got {coupling_convention!r}"
            )
        c0 = tuple(complex(x) for x in c0)
        if len(c0) != 3:
            raise ValueError(f"amplitude triple must have shape (3,), got ({len(c0)},)")
        norm_sq = 0.0
        for x in c0:
            norm_sq += x.real * x.real + x.imag * x.imag
        if not abs(norm_sq - 1.0) <= ATOL_NUMERIC:  # also refuses nan
            raise ValueError(f"state not normalized: |c|^2 = {norm_sq!r}")
        self._fill(config, kappa_a, kappa_b, delta, c0, coupling_convention)

    @property
    def coupling_gain(self) -> float:
        return 0.5 if self.coupling_convention == "half" else 1.0


def hamiltonian(p: SimParams) -> tuple[tuple[float, float, float], ...]:
    """Real symmetric rotating-frame Hamiltonian at equal detuning, as three rows.

    With g the coupling gain (1/2 or 1):

        Lambda: diag(2D/3, -D/3, -D/3),  H12 = g kappa23,  H13 = g kappa13
        Vee:    diag(D/3, D/3, -2D/3),   H13 = g kappa13,  H23 = g kappa12
        Xi:     diag(D, 0, -D),          H12 = g kappa23,  H23 = g kappa12
    """
    g, d = p.coupling_gain, p.delta
    if p.config is Configuration.LAMBDA:
        h11, h22, h33 = 2.0 * d / 3.0, -d / 3.0, -d / 3.0
        h12, h13, h23 = g * p.kappa_b, g * p.kappa_a, 0.0
    elif p.config is Configuration.VEE:
        h11, h22, h33 = d / 3.0, d / 3.0, -2.0 * d / 3.0
        h12, h13, h23 = 0.0, g * p.kappa_a, g * p.kappa_b
    else:
        h11, h22, h33 = d, 0.0, -d
        h12, h13, h23 = g * p.kappa_b, 0.0, g * p.kappa_a
    return (h11, h12, h13), (h12, h22, h23), (h13, h23, h33)


#: Most cyclic sweeps of :func:`eigenpairs`. The figures' Hamiltonians converge
#: in two to four, so the cap only ends a run of non-finite intermediates.
JACOBI_SWEEPS = 30

_EPS = 2.0**-53


def eigenpairs(h) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """Eigenvalues (ascending) and eigenvectors of a real symmetric 3x3 matrix.

    Cyclic Jacobi rotations (Golub & Van Loan, Matrix Computations, 4th ed.,
    section 8.5) until an off-diagonal entry is negligible against its two
    diagonal entries, the relative test of Demmel & Veselic (SIAM J. Matrix
    Anal. Appl. 13(4), 1992), at most JACOBI_SWEEPS sweeps. Returns
    (E1, E2, E3) and the rows of V, whose column k is the eigenvector of E_k.
    Only ``+ - * /`` and ``sqrt``: a non-finite intermediate gives non-finite
    output, never an exception.
    """
    a = [list(row) for row in h]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq, app, aqq = a[p][q], a[p][p], a[q][q]
            if apq == 0.0 or abs(apq) <= _EPS * math.sqrt(abs(app)) * math.sqrt(abs(aqq)):
                a[p][q] = a[q][p] = 0.0
                continue
            rotated = True
            theta = (aqq - app) / (2.0 * apq)
            t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))  # 0 once theta^2 overflows
            if theta < 0.0:
                t = -t
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            a[p][p] = app - t * apq
            a[q][q] = aqq + t * apq
            a[p][q] = a[q][p] = 0.0
            r = 3 - p - q
            arp, arq = a[r][p], a[r][q]
            a[r][p] = a[p][r] = arp - s * (arq + tau * arp)
            a[r][q] = a[q][r] = arq + s * (arp - tau * arq)
            for row in v:
                vp, vq = row[p], row[q]
                row[p] = vp - s * (vq + tau * vp)
                row[q] = vq + s * (vp - tau * vq)
        if not rotated:
            break
    order = sorted(range(3), key=lambda k: a[k][k])
    energies = tuple(a[k][k] for k in order)
    return energies, tuple(tuple(row[k] for k in order) for row in v)


#: The terms of M_kl = 2 sum_j h_j f_jlk on the symmetric generators j: one
#: ((k, l), j, f_jlk) per entry of F_REFERENCE and permutation, in their order.
_GENERATOR_TERMS = [
    ((triple[c], triple[b]), triple[a], sign * value)
    for triple, value in F_REFERENCE.items()
    for (a, b, c), sign in PERMUTATION_SIGN.items()
    if triple[a] in (1, 3, 4, 6, 8)
]


def generator_entries(h) -> dict[tuple[int, int], float]:
    """The 28 nonzero entries M_kl = 2 sum_j h_j f_jlk of a real symmetric H.

    Keys are one-based (k, l), in sorted order. The h_j are H's Gell-Mann
    coefficients: a real symmetric H has them only on the symmetric
    generators 1, 3, 4, 6 and 8 (the identity component drops out of the
    commutator). Each entry sums its terms in the order of F_REFERENCE.
    """
    (h11, h12, h13), (_, h22, h23), (_, _, h33) = h
    coefficients = {
        1: h12, 3: (h11 - h22) / 2.0, 4: h13, 6: h23,
        8: (h11 + h22 - 2.0 * h33) / (2.0 * _SQRT3),
    }
    m: dict[tuple[int, int], float] = {}
    for kl, j, f in _GENERATOR_TERMS:
        m[kl] = m.get(kl, 0.0) + 2.0 * coefficients[j] * f
    return dict(sorted(m.items()))


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


def row_formula(p: SimParams):
    """The table formula of ``p``: a function of t that gives one table row.

    ``row(t)`` is the 20 values t, n1..n8, dn1..dn8, s4, s2, norm2 at the
    float t. The amplitudes are c(t) = V exp(-i E t) V^T c0, with (E, V) from
    :func:`eigenpairs`; n is the Bloch vector of c(t); dn = M n runs over the
    28 entries of :func:`generator_entries`; the sector norms and |n|^2 sum
    the squares in index order. Pure arithmetic, with no check: an H, eigenpair
    or M entry that overflowed reaches the rows as nan or inf, and ``row``
    raises ValueError when a phase E t overflows, as ``math.cos(inf)`` does.
    """
    h = hamiltonian(p)
    (e1, e2, e3), vectors = eigenpairs(h)
    m = generator_entries(h)
    (v11, v12, v13), (v21, v22, v23), (v31, v32, v33) = vectors
    a1, a2, a3 = (x.real for x in p.c0)
    b1, b2, b3 = (x.imag for x in p.c0)
    # The weights w = V^T c0 in the eigenbasis, real and imaginary parts.
    wr1, wr2, wr3 = (v11 * a1 + v21 * a2 + v31 * a3, v12 * a1 + v22 * a2 + v32 * a3,
                     v13 * a1 + v23 * a2 + v33 * a3)
    wi1, wi2, wi3 = (v11 * b1 + v21 * b2 + v31 * b3, v12 * b1 + v22 * b2 + v32 * b3,
                     v13 * b1 + v23 * b2 + v33 * b3)
    (m12, m15, m17, m21, m23, m24, m26, m32, m35, m37, m42, m45, m47, m51,
     m53, m54, m56, m58, m62, m65, m67, m71, m73, m74, m76, m78, m85, m87) = m.values()
    (f1, f2, f3, f4, f5), (g1, g2, g3) = (
        tuple(k - 1 for k in ks) for ks in sector_index_sets(p.config))
    cos, sin, sqrt3 = math.cos, math.sin, _SQRT3

    def row(t):
        x1, x2, x3 = e1 * t, e2 * t, e3 * t
        c1, c2, c3 = cos(x1), cos(x2), cos(x3)
        s1, s2, s3 = sin(x1), sin(x2), sin(x3)
        # The eigen-components exp(-i E_k t) w_k, then c = V of them.
        pr1, pi1 = c1 * wr1 + s1 * wi1, c1 * wi1 - s1 * wr1
        pr2, pi2 = c2 * wr2 + s2 * wi2, c2 * wi2 - s2 * wr2
        pr3, pi3 = c3 * wr3 + s3 * wi3, c3 * wi3 - s3 * wr3
        r1, i1 = v11 * pr1 + v12 * pr2 + v13 * pr3, v11 * pi1 + v12 * pi2 + v13 * pi3
        r2, i2 = v21 * pr1 + v22 * pr2 + v23 * pr3, v21 * pi1 + v22 * pi2 + v23 * pi3
        r3, i3 = v31 * pr1 + v32 * pr2 + v33 * pr3, v31 * pi1 + v32 * pi2 + v33 * pi3
        # The Bloch vector, as states.bloch_from_amplitudes writes it out.
        q1, q2, q3 = r1 * r1 + i1 * i1, r2 * r2 + i2 * i2, r3 * r3 + i3 * i3
        n1, n2, n3 = 2.0 * (r1 * r2 + i1 * i2), 2.0 * (r1 * i2 - i1 * r2), q1 - q2
        n4, n5 = 2.0 * (r1 * r3 + i1 * i3), 2.0 * (r1 * i3 - i1 * r3)
        n6, n7 = 2.0 * (r2 * r3 + i2 * i3), 2.0 * (r2 * i3 - i2 * r3)
        n8 = (q1 + q2 - 2.0 * q3) / sqrt3
        sq = (n1 * n1, n2 * n2, n3 * n3, n4 * n4, n5 * n5, n6 * n6, n7 * n7, n8 * n8)
        return (
            t, n1, n2, n3, n4, n5, n6, n7, n8,
            m12 * n2 + m15 * n5 + m17 * n7,
            m21 * n1 + m23 * n3 + m24 * n4 + m26 * n6,
            m32 * n2 + m35 * n5 + m37 * n7,
            m42 * n2 + m45 * n5 + m47 * n7,
            m51 * n1 + m53 * n3 + m54 * n4 + m56 * n6 + m58 * n8,
            m62 * n2 + m65 * n5 + m67 * n7,
            m71 * n1 + m73 * n3 + m74 * n4 + m76 * n6 + m78 * n8,
            m85 * n5 + m87 * n7,
            sq[f1] + sq[f2] + sq[f3] + sq[f4] + sq[f5],
            sq[g1] + sq[g2] + sq[g3],
            sq[0] + sq[1] + sq[2] + sq[3] + sq[4] + sq[5] + sq[6] + sq[7],
        )

    return row
