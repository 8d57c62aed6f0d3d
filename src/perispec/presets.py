"""Built-in families of unital positive maps with non-group peripheral spectra.

Both families are one construction, parametrized by a unit-modulus scalar
lambda0 and available both as a single map and as a one-parameter family.

The base map E lives on one 2x2 block: the diagonal is averaged and the two
off-diagonal entries are rotated by lambda0 and its conjugate. It is unital,
positive, ergodic, and not completely positive, and for generic lambda0 its
peripheral eigenvalues {1, lambda0, conj(lambda0)} are not closed under
multiplication.

A family tensors E with a matrix psi on k block coordinates. Its map lives on
k 2x2 blocks, which realize 2x2 matrices over the k-dimensional abelian
algebra: block j carries coordinate j of each entry. E acts on the matrix and
psi on the coordinates of every entry, so the map is psi ⊗ E and each
eigenvalue omega of psi multiplies the three sectors of E. The first family
is psi = [[1]], which is E itself. The second is the coordinate swap on two
blocks, which adds a sign sector to the spectrum; for generic lambda0 its six
peripheral eigenvalues are again not a group, and at lambda0 = +-i they merge
into the group {1, -1, i, -i} with two-dimensional eigenspaces.

Continuous versions raise lambda0 and psi to real powers through the
principal argument. Integer times are computed by exact multiplication, so
the family at t = 1 reproduces the single map bit for bit. At t = 0 both
families average the diagonal instead of acting as the identity; this is a
genuine feature of the construction and is reported, not repaired.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

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
# One construction: psi on k block coordinates, tensored with the one-block
# map E.


# The units of E's sectors in the order _manifest lists the sectors: the
# identity, then the matrix units above and below the diagonal
_SECTOR_UNITS = (
    np.eye(2),
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.array([[0.0, 0.0], [1.0, 0.0]]),
)


@dataclass(frozen=True)
class _Psi:
    """A k x k matrix psi on the coordinates of k 2x2 blocks, given by its
    real powers through the principal argument (``power(1)`` is psi itself)
    and by its eigenpairs (omega, character) with
    psi @ character = omega * character. A real omega is a float."""

    algebra: BlockAlgebra
    power: Callable[[float], np.ndarray]
    eigenpairs: tuple[tuple[float | complex, tuple[float, ...]], ...]

    @cached_property
    def eigenvectors(self) -> list[list[AlgebraElement]]:
        """character ⊗ unit, normalized, for each unit of E's sectors (rows)
        and each eigenpair (columns); they do not depend on lambda0."""
        vectors = []
        for unit in _SECTOR_UNITS:
            parts = [np.multiply.outer(character, unit) for _, character in self.eigenpairs]
            vectors.append([self.algebra.element(p / np.linalg.norm(p)) for p in parts])
        return vectors


def _swap_power(t: float) -> np.ndarray:
    """The swap to the power t, [[c, s], [s, c]] with w = (-1)**t. Its entries
    are complex at every t, integers included, so ex2 takes the complex
    product in :func:`_superoperator`."""
    w = unit_phase_power(-1.0 + 0.0j, t)
    c, s = (1.0 + w) / 2.0, (1.0 - w) / 2.0
    return np.array([[c, s], [s, c]])


_ONE_BY_ONE = np.ones((1, 1))
_ONE = _Psi(
    algebra=BlockAlgebra((2,)),
    power=lambda t: _ONE_BY_ONE,
    eigenpairs=((1.0, (1.0,)),),
)
_SWAP = _Psi(
    algebra=BlockAlgebra((2, 2)),
    power=_swap_power,
    eigenpairs=((1.0, (1.0, 1.0)), (-1.0, (1.0, -1.0))),
)


# E without its rotation: the diagonal averaged, the off-diagonal dropped
_AVERAGE = np.array(
    [[0.5, 0.0, 0.0, 0.5], [0.0] * 4, [0.0] * 4, [0.5, 0.0, 0.0, 0.5]],
    dtype=np.complex128,
)


def _superoperator(psi: _Psi, t: float, lam: complex) -> Superoperator:
    """psi**t ⊗ E(lam): M[4j + r, 4k + c] = E[r, c] psi**t[j, k], with E the
    one-block map that averages the diagonal and rotates the off-diagonal
    entries by lam and its conjugate.

    The E entry is the left factor, as lam is in lam * psi(entry): complex
    multiplication is not bitwise commutative, and this order keeps every
    nonzero entry equal to the entrywise construction's bit for bit. A real
    psi scales each part of E, as C99 multiplies a real by a complex number,
    so psi = [[1]] leaves every bit of E in place, signed zeros included.
    """
    e = _AVERAGE.copy()
    e[1, 1] = lam
    e[2, 2] = complex(lam).conjugate()
    power = psi.power(t)
    side = 4 * len(power)
    if np.isrealobj(power):
        e = e.view(np.float64)  # row r of E as (re, im) pairs
    product = e[None, :, None, :] * power[:, None, :, None]
    matrix = product.view(np.complex128).reshape(side, side)
    return Superoperator(psi.algebra, matrix)


def _lambda0(psi: _Psi, lambda0: complex) -> complex:
    """lambda0 as a family accepts it: unit modulus and no eigenvalue of psi,
    where a rotation sector would meet a diagonal one."""
    lambda0 = complex(lambda0)
    if not abs(abs(lambda0) - 1.0) <= _UNIT_MODULUS_TOL:  # NaN fails too
        raise BadLambda0(f"lambda0 = {lambda0!r} is not on the unit circle")
    omegas = [omega for omega, _ in psi.eigenpairs]
    for omega in omegas:
        if abs(lambda0 - omega) <= MERGE_TOL:
            listing = ", ".join(f"{w:g}" for w in omegas)
            raise BadLambda0(
                f"lambda0 = {omega:g} is an eigenvalue of psi and merges a rotation "
                f"sector into a diagonal one; pick lambda0 outside {{{listing}}}"
            )
    return lambda0


def _times(omega: float | complex, s: float | complex) -> complex:
    """omega * s, where a float omega scales each part of a complex s, as C99
    multiplies a real by a complex number: omega = -1 then negates s bit for
    bit, where the complex product would flip the sign of a zero part."""
    if isinstance(omega, float) and isinstance(s, complex):
        return complex(omega * s.real, omega * s.imag)
    return complex(omega * s)


def _manifest(psi: _Psi, lambda0: complex) -> ExampleManifest:
    """Rows of psi ⊗ E: each eigenpair (omega, character) of psi times each
    sector of E, which is 1 on the identity (case III) and lambda0 and its
    conjugate on the two matrix units off the diagonal (case I). The eigenvector
    is character ⊗ unit, normalized; the winding rate adds the arguments."""
    phase0 = cmath.phase(lambda0)
    sectors = ((1.0, "III", 0.0), (lambda0, "I", phase0), (lambda0.conjugate(), "I", -phase0))
    rows = [
        (_times(omega, s), tag, x, cmath.phase(omega) + phase)
        for (s, tag, phase), xs in zip(sectors, psi.eigenvectors)
        for (omega, _), x in zip(psi.eigenpairs, xs)
    ]
    return ExampleManifest(*_sorted_manifest_rows(rows))


def _build(psi: _Psi, lambda0: complex) -> tuple[Superoperator, ExampleManifest]:
    lambda0 = _lambda0(psi, lambda0)
    return _superoperator(psi, 1.0, lambda0), _manifest(psi, lambda0)


def _build_continuous(psi: _Psi, lambda0: complex) -> ContinuousFamily:
    lambda0 = _lambda0(psi, lambda0)

    def builder(t: float) -> Superoperator:
        return _superoperator(psi, t, unit_phase_power(lambda0, t))

    return ContinuousFamily(
        algebra=psi.algebra, builder=builder, zero_time_note=_ZERO_TIME_NOTE
    )


# ----------------------------------------------------------------------
# The two families.


def build_example1(lambda0: complex) -> tuple[Superoperator, ExampleManifest]:
    """Diagonal-averaging map on one 2x2 block with off-diagonal rotation:
    psi = [[1]].

    Requires unit-modulus lambda0 different from 1. The maximally mixed state
    is the unique invariant state. The peripheral spectrum is
    {1, lambda0, conj(lambda0)}, a group only when lambda0 is -1 or a cube
    root of unity.
    """
    return _build(_ONE, lambda0)


def build_example1_continuous(lambda0: complex) -> ContinuousFamily:
    """One-parameter version: the off-diagonal rotation is raised to the
    power t; the diagonal averaging does not depend on t."""
    return _build_continuous(_ONE, lambda0)


def build_example2(lambda0: complex) -> tuple[Superoperator, ExampleManifest]:
    """Swap-twisted map on 2x2 matrices over the two-dimensional abelian
    algebra: psi is the coordinate swap.

    Requires unit-modulus lambda0 with lambda0 != 1 and lambda0 != -1. The
    generic peripheral spectrum consists of the six points
    {1, -1, +-lambda0, +-conj(lambda0)} with one-dimensional eigenspaces; at
    lambda0 = +-i the four off-diagonal sectors pair up into two
    two-dimensional eigenspaces and the spectrum becomes the group
    {1, -1, i, -i}.
    """
    return _build(_SWAP, lambda0)


def build_example2_continuous(lambda0: complex) -> ContinuousFamily:
    """One-parameter version: both the swap and the off-diagonal rotation are
    raised to the power t, the swap as [[c, s], [s, c]] with c = (1 + w)/2,
    s = (1 - w)/2 and w = (-1)**t; the diagonal averaging does not depend
    on t."""
    return _build_continuous(_SWAP, lambda0)


_ABELIAN2 = BlockAlgebra((1, 1))


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


PRESET_NAMES = ("ex1", "ex1c", "ex2", "ex2c", "psi_swap")
