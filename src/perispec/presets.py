"""Built-in families of unital positive maps with non-group peripheral spectra.

Two families are provided, each parametrized by a unit-modulus scalar
lambda0 and available both as a single map and as a one-parameter family.

The first lives on one 2x2 block: the diagonal is averaged and the two
off-diagonal entries are rotated by lambda0 and its conjugate. It is unital,
positive, ergodic, and not completely positive, and for generic lambda0 its
peripheral eigenvalues {1, lambda0, conj(lambda0)} are not closed under
multiplication.

The second lives on two 2x2 blocks, which realize 2x2 matrices over the
two-dimensional abelian algebra: block j carries coordinate j of each entry.
On top of the same averaging and rotation, every entry is passed through the
coordinate swap, which adds a sign sector to the spectrum; the map is the
swap tensored with the first map. For generic lambda0 the six peripheral
eigenvalues are again not a group; at lambda0 = +-i they merge into the
group {1, -1, i, -i} with two-dimensional eigenspaces.

Continuous versions raise lambda0 and the swap to real powers through the
principal argument. Integer times are computed by exact multiplication, so
the family at t = 1 reproduces the single map bit for bit. At t = 0 both
families average the diagonal instead of acting as the identity; this is a
genuine feature of the construction and is reported, not repaired.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, BlockAlgebra
from .errors import BadLambda0
from .superop import (
    MERGE_TOL,
    ContinuousFamily,
    InvariantState,
    Superoperator,
    _cluster_values,
)

__all__ = [
    "ExampleManifest",
    "unit_phase_power",
    "build_example1",
    "build_example1_continuous",
    "build_psi_swap",
    "build_example2",
    "build_example2_continuous",
    "PRESET_NAMES",
]

_UNIT_MODULUS_TOL = 1e-9

_ZERO_TIME_NOTE = (
    "builder(0) averages the diagonal and is an idempotent map, not the "
    "identity; the semigroup law holds for all s, t >= 0 regardless"
)


@dataclass(frozen=True)
class ExampleManifest:
    """Expected analysis outcomes for a preset map.

    Spectrum, dimensions, classification tags, canonical eigenvectors, and
    continuous winding rates are aligned: entry k of each field describes the
    k-th expected spectral point in (real, imaginary) lexicographic order.
    Tags use "I" for square-zero partial isometries, "II" for genuine
    two-coefficient splits, "III" for scaled unitaries.

    ``continuous_phases`` holds, per canonical eigenvector, the rate w such
    that the matching one-parameter family sends it to exp(i w t) times
    itself. The rate can leave the principal branch (its wrap to (-pi, pi]
    need not equal the argument of the eigenvalue), which is why it is
    recorded instead of being recomputed from the eigenvalue.
    """

    expected_spectrum: tuple[complex, ...]
    expected_dims: tuple[int, ...]
    expected_classifications: tuple[tuple[str, ...], ...]
    canonical_eigenvectors: tuple[tuple[AlgebraElement, ...], ...]
    continuous_phases: tuple[tuple[float, ...], ...]
    notes: dict

    def __post_init__(self) -> None:
        lengths = {
            len(self.expected_spectrum),
            len(self.expected_dims),
            len(self.expected_classifications),
            len(self.canonical_eigenvectors),
            len(self.continuous_phases),
        }
        if len(lengths) != 1:
            raise ValueError("manifest fields are not aligned")
        for dim, tags, basis, phases in zip(
            self.expected_dims,
            self.expected_classifications,
            self.canonical_eigenvectors,
            self.continuous_phases,
        ):
            if dim != len(tags) or dim != len(basis) or dim != len(phases):
                raise ValueError("per-point manifest entries are not aligned")


def unit_phase_power(value: complex, t: float) -> complex:
    """value**t for unit-modulus value, via the principal argument.

    Integer times are computed by exact repeated multiplication so that the
    continuous families agree with their discrete counterparts at t = 1
    without floating-point drift.
    """
    value = complex(value)
    n = round(t)
    if t == n:
        return value ** int(n)
    return cmath.exp(1j * cmath.phase(value) * t)


def _require_unit_modulus(lambda0: complex) -> complex:
    lambda0 = complex(lambda0)
    if not abs(abs(lambda0) - 1.0) <= _UNIT_MODULUS_TOL:  # NaN fails too
        raise BadLambda0(f"lambda0 = {lambda0!r} is not on the unit circle")
    return lambda0


def _sorted_manifest_rows(rows):
    """Group (value, tag, element, phase) rows by merged eigenvalue and sort.

    Rows merge by the rule that merges computed spectra; each group keeps its
    rows in the given order and the closed-form value of its first row.
    """
    clusters = _cluster_values([row[0] for row in rows], MERGE_TOL)
    groups = [[rows[k] for k in sorted(members)] for _, _, members in clusters]
    spectrum = tuple(g[0][0] for g in groups)
    dims = tuple(len(g) for g in groups)
    tags = tuple(tuple(entry[1] for entry in g) for g in groups)
    basis = tuple(tuple(entry[2] for entry in g) for g in groups)
    phases = tuple(tuple(entry[3] for entry in g) for g in groups)
    return spectrum, dims, tags, basis, phases


# ----------------------------------------------------------------------
# Family on one 2x2 block.

_EX1_ALGEBRA = BlockAlgebra((2,))


def _example1_superoperator(lam: complex) -> Superoperator:
    matrix = np.array(
        [
            [0.5, 0.0, 0.0, 0.5],
            [0.0, lam, 0.0, 0.0],
            [0.0, 0.0, complex(lam).conjugate(), 0.0],
            [0.5, 0.0, 0.0, 0.5],
        ],
        dtype=np.complex128,
    )
    return Superoperator(_EX1_ALGEBRA, matrix)


def _example1_lambda0(lambda0: complex) -> complex:
    """lambda0 as the one-block family accepts it: unit modulus, not 1."""
    lambda0 = _require_unit_modulus(lambda0)
    if abs(lambda0 - 1.0) <= MERGE_TOL:
        raise BadLambda0("lambda0 = 1 degenerates the family; pick lambda0 != 1")
    return lambda0


def _example1_group_regime(lambda0: complex) -> bool:
    return abs(lambda0**3 - 1.0) <= MERGE_TOL or abs(lambda0 + 1.0) <= MERGE_TOL


def build_example1(
    lambda0: complex,
) -> tuple[Superoperator, InvariantState, ExampleManifest]:
    """Diagonal-averaging map on one 2x2 block with off-diagonal rotation.

    Requires unit-modulus lambda0 different from 1. The maximally mixed state
    is the unique invariant state. The peripheral spectrum is
    {1, lambda0, conj(lambda0)}, a group only when lambda0 is -1 or a cube
    root of unity.
    """
    lambda0 = _example1_lambda0(lambda0)
    phi = _example1_superoperator(lambda0)
    algebra = phi.algebra
    state = InvariantState(
        rho=algebra.element([np.eye(2) / 2.0]), faithful=True
    )
    one_normalized = algebra.element([np.eye(2) / np.sqrt(2.0)])
    e12 = algebra.element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    e21 = algebra.element([np.array([[0.0, 0.0], [1.0, 0.0]])])
    phase0 = cmath.phase(lambda0)
    rows = [
        (1.0 + 0.0j, "III", one_normalized, 0.0),
        (lambda0, "I", e12, phase0),
        (lambda0.conjugate(), "I", e21, -phase0),
    ]
    spectrum, dims, tags, basis, phases = _sorted_manifest_rows(rows)
    group = _example1_group_regime(lambda0)
    manifest = ExampleManifest(
        expected_spectrum=spectrum,
        expected_dims=dims,
        expected_classifications=tags,
        canonical_eigenvectors=basis,
        continuous_phases=phases,
        notes={
            "group": group,
            "regime": "merged" if abs(lambda0 + 1.0) <= MERGE_TOL else "generic",
        },
    )
    return phi, state, manifest


def build_example1_continuous(lambda0: complex) -> ContinuousFamily:
    """One-parameter version: the off-diagonal rotation is raised to the
    power t; the diagonal averaging does not depend on t."""
    lambda0 = _example1_lambda0(lambda0)

    def builder(t: float) -> Superoperator:
        return _example1_superoperator(unit_phase_power(lambda0, t))

    return ContinuousFamily(
        algebra=_EX1_ALGEBRA,
        builder=builder,
        zero_time_note=_ZERO_TIME_NOTE,
    )


# ----------------------------------------------------------------------
# Coordinate swap on the two-dimensional abelian algebra, and the family
# built on top of it.

_ABELIAN2 = BlockAlgebra((1, 1))
_EX2_ALGEBRA = BlockAlgebra((2, 2))


def build_psi_swap() -> tuple[Superoperator, AlgebraElement, InvariantState]:
    """Coordinate swap on the abelian algebra of two 1x1 blocks.

    Returns the swap, the sign element u = (1, -1) spanning its -1
    eigenspace, and the balanced invariant state.
    """
    swap = Superoperator(_ABELIAN2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    u = _ABELIAN2.element([np.array([[1.0]]), np.array([[-1.0]])])
    state = InvariantState(
        rho=_ABELIAN2.element([np.array([[0.5]]), np.array([[0.5]])]),
        faithful=True,
    )
    return swap, u, state


def _example2_superoperator(lam: complex, c: complex, s: complex) -> Superoperator:
    """The first example's map tensored with psi = [[c, s], [s, c]] on the
    two block coordinates: M[4j + r, 4k + c'] = E[r, c'] psi[j, k].

    The ex1 entry is the left factor, as lam is in lam * psi(entry): complex
    multiplication is not bitwise commutative, and this order keeps every
    nonzero entry equal to the entrywise construction's bit for bit.
    """
    ex1 = _example1_superoperator(lam).matrix
    psi = np.array([[c, s], [s, c]])
    matrix = (ex1[None, :, None, :] * psi[:, None, :, None]).reshape(8, 8)
    return Superoperator(_EX2_ALGEBRA, matrix)


def _ex2_element(top: np.ndarray | None, bottom: np.ndarray | None, diag=None):
    """Element of the two-block algebra from entrywise coordinate pairs."""
    parts = []
    for j in (0, 1):
        m = np.zeros((2, 2), dtype=np.complex128)
        if diag is not None:
            m[0, 0] = diag[j]
            m[1, 1] = diag[j]
        if top is not None:
            m[0, 1] = top[j]
        if bottom is not None:
            m[1, 0] = bottom[j]
        parts.append(m)
    return _EX2_ALGEBRA.element(parts)


def _example2_lambda0(lambda0: complex) -> complex:
    """lambda0 as the two-block family accepts it: unit modulus, not +-1."""
    lambda0 = _require_unit_modulus(lambda0)
    for excluded in (1.0, -1.0):
        if abs(lambda0 - excluded) <= MERGE_TOL:
            raise BadLambda0(
                f"lambda0 = {excluded:g} collides with the sign sector; "
                "pick lambda0 off the real axis"
            )
    return lambda0


def _example2_regime(lambda0: complex) -> str:
    if abs(lambda0 - 1j) <= MERGE_TOL or abs(lambda0 + 1j) <= MERGE_TOL:
        return "merged"
    return "generic"


def build_example2(lambda0: complex) -> tuple[Superoperator, ExampleManifest]:
    """Swap-twisted map on 2x2 matrices over the two-dimensional abelian
    algebra.

    Requires unit-modulus lambda0 with lambda0 != 1 and lambda0 != -1. The
    generic peripheral spectrum consists of the six points
    {1, -1, +-lambda0, +-conj(lambda0)} with one-dimensional eigenspaces; at
    lambda0 = +-i the four off-diagonal sectors pair up into two
    two-dimensional eigenspaces and the spectrum becomes the group
    {1, -1, i, -i}.
    """
    lambda0 = _example2_lambda0(lambda0)
    phi = _example2_superoperator(lambda0, 0.0, 1.0)
    ones = np.array([1.0, 1.0])
    sign = np.array([1.0, -1.0])
    phase0 = cmath.phase(lambda0)
    pi = cmath.pi
    rows = [
        (1.0 + 0.0j, "III", _ex2_element(None, None, diag=ones / 2.0), 0.0),
        (-1.0 + 0.0j, "III", _ex2_element(None, None, diag=sign / 2.0), pi),
        (lambda0, "I", _ex2_element(ones / np.sqrt(2.0), None), phase0),
        (-lambda0, "I", _ex2_element(sign / np.sqrt(2.0), None), phase0 + pi),
        (lambda0.conjugate(), "I", _ex2_element(None, ones / np.sqrt(2.0)), -phase0),
        (-lambda0.conjugate(), "I", _ex2_element(None, sign / np.sqrt(2.0)), pi - phase0),
    ]
    spectrum, dims, tags, basis, phases = _sorted_manifest_rows(rows)
    regime = _example2_regime(lambda0)
    group = regime == "merged" or min(
        abs(lambda0**3 - 1.0), abs(lambda0**3 + 1.0)
    ) <= MERGE_TOL
    manifest = ExampleManifest(
        expected_spectrum=spectrum,
        expected_dims=dims,
        expected_classifications=tags,
        canonical_eigenvectors=basis,
        continuous_phases=phases,
        notes={"group": group, "regime": regime},
    )
    return phi, manifest


def build_example2_continuous(lambda0: complex) -> ContinuousFamily:
    """One-parameter version: both the swap and the off-diagonal rotation are
    raised to the power t; the diagonal averaging does not depend on t."""
    lambda0 = _example2_lambda0(lambda0)

    def builder(t: float) -> Superoperator:
        w = unit_phase_power(-1.0 + 0.0j, t)
        return _example2_superoperator(
            unit_phase_power(lambda0, t), (1.0 + w) / 2.0, (1.0 - w) / 2.0
        )

    return ContinuousFamily(
        algebra=_EX2_ALGEBRA,
        builder=builder,
        zero_time_note=_ZERO_TIME_NOTE,
    )


PRESET_NAMES = ("ex1", "ex1c", "ex2", "ex2c", "psi_swap")
