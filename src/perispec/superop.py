"""Superoperators on block algebras and their peripheral point spectra.

A linear map on a block algebra is stored as its matrix with respect to the
row-major vectorization of the blocks. The peripheral point spectrum collects
the eigenvalues of unit modulus together with orthonormal eigenspace bases;
closure checks probe the algebraic structure of those eigenspaces under the
adjoint, the symmetrized product, and products of eigenvalues.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    BlockAlgebra,
    Tolerances,
    adjoint,
    column_space,
    devectorize,
    element_norm,
    from_hermitian_basis,
    general_eig,
    hermitian_basis_form,
    hermitian_eig,
    max_norm,
    null_space,
    scalar_multiple_of_identity,
    vectorize,
)
from .errors import (
    AlgebraMismatch,
    ConvergenceFailure,
    DimensionMismatch,
    NoPositiveFixedState,
)

__all__ = [
    "PERIPHERAL_TOL",
    "MERGE_TOL",
    "Superoperator",
    "SpectralPoint",
    "PointSpectrum",
    "InvariantState",
    "StarClosureReport",
    "JordanClosureReport",
    "GroupClosureReport",
    "ContinuousFamily",
    "from_action",
    "apply",
    "unitality_check",
    "point_spectrum",
    "ergodicity_check",
    "invariant_state",
    "star_closure_check",
    "jordan_closure_check",
    "group_closure_report",
    "semigroup_law_check",
    "continuous_eigen_check",
]

# Default radius for treating an eigenvalue as peripheral and for merging
# numerically split copies of one eigenvalue.
PERIPHERAL_TOL = 1e-7
MERGE_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A linear map on a block algebra, as a matrix acting on vectorizations."""

    algebra: BlockAlgebra
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128, order="C")
        d = self.algebra.dim
        if m.shape != (d, d):
            raise DimensionMismatch(
                f"superoperator matrix of shape {m.shape} does not fit dim {d}"
            )
        if not np.isfinite(m).all():
            raise ValueError("superoperator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return apply(self, x)

    @cached_property
    def hermitian_form(self) -> tuple[np.ndarray, float]:
        """The real part of the matrix in the Hermitian basis and the relative
        size of the imaginary part it drops, from
        :func:`~perispec.algebra.hermitian_basis_form`; made once per map."""
        return hermitian_basis_form(self.algebra, self.matrix)


@dataclass(frozen=True)
class SpectralPoint:
    """One peripheral eigenvalue with an orthonormal eigenspace basis."""

    value: complex
    basis: tuple[AlgebraElement, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class PointSpectrum:
    """Peripheral spectral points sorted by (real, imaginary) part."""

    points: tuple[SpectralPoint, ...]

    @property
    def values(self) -> tuple[complex, ...]:
        return tuple(p.value for p in self.points)

    @property
    def dimensions(self) -> tuple[int, ...]:
        return tuple(p.dimension for p in self.points)

    def find(self, value: complex, radius: float = MERGE_TOL) -> SpectralPoint | None:
        for point in self.points:
            if abs(point.value - value) <= radius:
                return point
        return None


@dataclass(frozen=True)
class InvariantState:
    """Positive trace-one fixed point of the dual map."""

    rho: AlgebraElement
    faithful: bool


@dataclass(frozen=True)
class StarClosureReport:
    """Residuals of the adjoint of each eigenvector against the conjugate
    eigenvalue.

    ``labels`` are the (value, index) of every basis vector of the point
    spectrum in order, and ``residual`` holds one residual per label.
    ``entries`` derives the triples (value, index, residual) from them.
    """

    max_residual: float
    labels: list[tuple[complex, int]]
    residual: np.ndarray

    @property
    def entries(self) -> tuple[tuple[complex, int, float], ...]:
        return tuple(
            (value, i, r) for (value, i), r in zip(self.labels, self.residual.tolist())
        )


@dataclass(frozen=True)
class JordanClosureReport:
    """Residuals of symmetrized products of eigenvectors against the product
    eigenvalue; products below tolerance are closed vacuously.

    ``residual`` and ``vanished`` are indexed by ordered pairs of the basis
    vectors named in ``labels``, as in :class:`StarClosureReport`.
    ``entries`` derives the tuples (value1, index1, value2, index2,
    residual, vanished) from them, in row-major order.
    """

    max_residual: float
    labels: list[tuple[complex, int]]
    residual: np.ndarray
    vanished: np.ndarray

    @property
    def vanished_count(self) -> int:
        return int(self.vanished.sum())

    @property
    def entries(self) -> tuple[tuple[complex, int, complex, int, float, bool], ...]:
        labels = self.labels
        return tuple(
            (*labels[a], *labels[b], r, v)
            for a, (r_row, v_row) in enumerate(
                zip(self.residual.tolist(), self.vanished.tolist())
            )
            for b, (r, v) in enumerate(zip(r_row, v_row))
        )


@dataclass(frozen=True)
class GroupClosureReport:
    """Whether the peripheral eigenvalues form a group under multiplication.

    ``values`` are the spectral values in the order of the point spectrum.
    Each pair [a, b] of ``missing_pairs`` indexes two of them whose product
    values[a] * values[b] is not among the spectral values within the
    closure radius; the pairs are in row-major order, as plain lists ready
    for JSON. ``missing`` derives the triples (lam, mu, lam * mu) from them.
    """

    is_group: bool
    has_identity: bool
    conjugation_closed: bool
    values: tuple[complex, ...]
    missing_pairs: list[list[int]]

    @property
    def missing(self) -> tuple[tuple[complex, complex, complex], ...]:
        v = self.values
        return tuple((v[a], v[b], v[a] * v[b]) for a, b in self.missing_pairs)


@dataclass(frozen=True)
class ContinuousFamily:
    """One-parameter family t -> superoperator on a fixed algebra.

    Families that do not start at the identity map, because they average part
    of the input independently of t, carry an explanatory note instead of
    being repaired.
    """

    algebra: BlockAlgebra
    builder: Callable[[float], Superoperator]
    zero_time_note: str | None = None


def from_action(
    algebra: BlockAlgebra, action: Callable[[AlgebraElement], AlgebraElement]
) -> Superoperator:
    """Build the matrix by applying a linear action to the matrix-unit basis."""
    columns = []
    for image in map(action, algebra.basis()):
        if image.algebra != algebra:
            raise AlgebraMismatch("basis image lives in a different algebra")
        columns.append(vectorize(image))
    return Superoperator(algebra, np.column_stack(columns))


def apply(phi: Superoperator, x: AlgebraElement) -> AlgebraElement:
    if x.algebra != phi.algebra:
        raise AlgebraMismatch("element does not live in the superoperator's algebra")
    return devectorize(phi.algebra, phi.matrix @ vectorize(x))


def unitality_check(phi: Superoperator, tol: Tolerances = DEFAULT_TOL) -> bool:
    one = phi.algebra.identity()
    return element_norm(apply(phi, one) - one) <= tol.eq_tol


def _sort_key(z: complex) -> tuple[float, float]:
    # Rounding keeps the (real, imaginary) order stable when eigenvalue noise
    # perturbs values that agree in their real part.
    return (round(z.real, 12), round(z.imag, 12))


def _cluster_values(
    values: Sequence[complex], radius: float
) -> list[tuple[complex, float, list[int]]]:
    """Greedy merge of complex values within ``radius``; returns (mean,
    spread, member indices into ``values``) per cluster sorted by the (real,
    imaginary) part of the mean.

    In (real, imaginary) order, each value joins the first cluster, in order
    of creation, whose mean lies within ``radius`` of it, or starts a new
    one. Every later value lies further right, up to the rounding of the sort
    key, so a cluster whose mean falls more than ``radius`` (plus slack for
    that rounding) left of the current value can take no more members and
    is swept out of the search. Means come from running sums.
    """
    clusters: list[list[int]] = []
    totals: list[complex] = []
    live = 0  # clusters before this index are swept out
    order = sorted(range(len(values)), key=lambda k: _sort_key(values[k]))
    for k in order:
        value = values[k]
        horizon = value.real - radius - 1e-9 * (1.0 + abs(value.real))
        while live < len(clusters) and (totals[live] / len(clusters[live])).real < horizon:
            live += 1
        for c in range(live, len(clusters)):
            if abs(value - totals[c] / len(clusters[c])) <= radius:
                break
        else:
            c = len(clusters)
            clusters.append([])
            totals.append(0)
        clusters[c].append(k)
        totals[c] += value
    merged = []
    for cluster, total in zip(clusters, totals):
        mean = total / len(cluster)
        merged.append((mean, max(abs(values[m] - mean) for m in cluster), cluster))
    return sorted(merged, key=lambda entry: _sort_key(entry[0]))


def _real_form(phi: Superoperator, tol: Tolerances) -> np.ndarray | None:
    """The map's matrix in the Hermitian basis, real, when the map preserves
    Hermiticity within ``eq_tol``; None otherwise."""
    real, defect = phi.hermitian_form
    return real if defect <= tol.eq_tol else None


def _row_drift(phi: Superoperator, rows: np.ndarray, values) -> np.ndarray:
    """Per row x of vectorizations, the largest entry of phi(x) - value * x;
    ``values`` holds one value per row or one for all rows."""
    drift = rows @ phi.matrix.T - np.reshape(values, (-1, 1)) * rows
    return np.abs(drift).max(axis=1)


def point_spectrum(
    phi: Superoperator,
    tol: Tolerances = DEFAULT_TOL,
    peripheral_tol: float = PERIPHERAL_TOL,
    merge_tol: float = MERGE_TOL,
) -> PointSpectrum:
    """Peripheral eigenvalues of the map with orthonormal eigenspace bases.

    One dense eigendecomposition gives every eigenvalue and eigenvector. A
    map that preserves Hermiticity within ``eq_tol``, as every positive map
    does, is decomposed in the Hermitian basis, where its matrix is real:
    LAPACK's real solver is faster, and it returns the eigenvalues off the
    real axis in exact conjugate pairs. Only the peripheral eigenvectors are
    mapped back. Any other map is decomposed as a complex matrix.

    Eigenvalues within ``peripheral_tol`` of the unit circle are kept and
    numerically split copies within ``merge_tol`` of each other are merged.
    Each cluster's eigenvector columns are orthonormalized together and
    re-verified against the map's matrix with one residual check. When they
    lose rank or fail the check, as at a defective eigenvalue, the
    eigenspace is recomputed as the kernel of (matrix - lambda id) and
    verified the same way.
    """
    real = _real_form(phi, tol)
    eigenvalues, eigenvectors = general_eig(phi.matrix if real is None else real)
    keep = [k for k, v in enumerate(eigenvalues) if abs(abs(v) - 1.0) <= peripheral_tol]
    peripheral = [complex(eigenvalues[k]) for k in keep]
    columns = eigenvectors[:, keep]
    if real is not None:
        columns = from_hermitian_basis(phi.algebra, columns)
    bound = max(tol.eq_tol, 10.0 * tol.rank_tol)
    points = []
    for value, spread, members in _cluster_values(peripheral, merge_tol):
        basis = column_space(columns[:, members], tol)
        if basis.shape[1] < len(members) or _row_drift(phi, basis.T, value).max() > bound:
            # merged clusters need an absolute singular-value floor: each member
            # direction sits at distance |v - mean| <= spread from the kernel
            floor = spread + tol.rank_tol * max(1.0, spread)
            kernel = null_space(phi.matrix - value * np.eye(phi.algebra.dim), tol, atol=floor)
            if not kernel:
                raise ConvergenceFailure(
                    f"eigenvalue {value!r} reported but its eigenspace came back empty"
                )
            basis = np.column_stack(kernel)
            drift = _row_drift(phi, basis.T, value).max()
            if drift > bound:
                raise ConvergenceFailure(
                    f"eigenvector drift {drift:.3e} at eigenvalue {value!r}"
                )
        points.append(
            SpectralPoint(value, tuple(devectorize(phi.algebra, v) for v in basis.T))
        )
    return PointSpectrum(tuple(points))


def ergodicity_check(
    phi: Superoperator,
    tol: Tolerances = DEFAULT_TOL,
    spectrum: PointSpectrum | None = None,
) -> bool:
    """True when the fixed space is exactly the scalar multiples of the
    identity."""
    if spectrum is None:
        spectrum = point_spectrum(phi, tol)
    fixed = spectrum.find(1.0 + 0.0j)
    if fixed is None or fixed.dimension != 1:
        return False
    return scalar_multiple_of_identity(fixed.basis[0], tol) is not None


def invariant_state(
    phi: Superoperator, tol: Tolerances = DEFAULT_TOL
) -> InvariantState:
    """Positive trace-one fixed point of the dual map.

    The dual acts by the conjugate transpose of the matrix. The candidate is
    the orthogonal projection of the maximally mixed state onto the dual
    fixed space, which is again a fixed point; it is then verified against
    the map's matrix to be Hermitian, fixed, positive semidefinite, and of
    unit trace. For a map that preserves Hermiticity within ``eq_tol`` the
    dual fixed space is found in the Hermitian basis, where the dual's matrix
    is the transpose of the real form: a real SVD with the same singular
    values, since the change of basis is unitary.
    """
    d = phi.algebra.dim
    mixed = vectorize(phi.algebra.scalar(1.0 / phi.algebra.total_size))
    real = _real_form(phi, tol)
    if real is None:
        kernel = null_space(phi.matrix.conj().T - np.eye(d), tol)
    else:
        kernel = null_space(real.T - np.eye(d), tol)
        # a multiple of the identity has the same coordinates in both bases
        mixed = mixed.real
    if not kernel:
        raise NoPositiveFixedState("the dual map has no fixed point")
    projected = sum(np.vdot(vec, mixed) * vec for vec in kernel)
    if real is not None:
        projected = from_hermitian_basis(phi.algebra, projected)
    candidate = devectorize(phi.algebra, projected)
    herm_defect = element_norm(candidate - adjoint(candidate))
    if herm_defect > tol.eq_tol:
        raise NoPositiveFixedState(
            f"projected fixed point is not Hermitian (defect {herm_defect:.3e})"
        )
    candidate = 0.5 * (candidate + adjoint(candidate))
    trace = candidate.trace()
    if abs(trace) <= tol.eq_tol:
        raise NoPositiveFixedState("projected fixed point has vanishing trace")
    rho = (1.0 / trace) * candidate
    fixed_residual = element_norm(
        devectorize(phi.algebra, phi.matrix.conj().T @ vectorize(rho)) - rho
    )
    if fixed_residual > max(tol.eq_tol, 10.0 * tol.rank_tol):
        raise NoPositiveFixedState(
            f"candidate drifts under the dual map by {fixed_residual:.3e}"
        )
    least = min(float(hermitian_eig(p, tol)[0][0]) for p in rho.parts)
    if least < -tol.psd_tol:
        raise NoPositiveFixedState(
            f"fixed point of the dual map is not PSD (least eigenvalue {least:.3e})"
        )
    return InvariantState(rho=rho, faithful=least > tol.rank_tol)


def _stacked_eigenvectors(
    spectrum: PointSpectrum, algebra: BlockAlgebra
) -> tuple[list[tuple[complex, int]], np.ndarray, np.ndarray]:
    """Every basis vector of the spectrum in order: (value, index) labels,
    eigenvalues, and vectorizations as the rows of one array."""
    labels = [(p.value, i) for p in spectrum.points for i in range(p.dimension)]
    values = np.array([value for value, _ in labels], dtype=np.complex128)
    rows = np.array(
        [vectorize(x) for p in spectrum.points for x in p.basis], dtype=np.complex128
    ).reshape(len(labels), algebra.dim)
    return labels, values, rows


def _block_stacks(algebra: BlockAlgebra, rows: np.ndarray) -> list[np.ndarray]:
    """Per block, the (count, n, n) stack of that block of each row."""
    o = algebra.offsets
    return [
        rows[:, o[k] : o[k + 1]].reshape(-1, n, n) for k, n in enumerate(algebra.blocks)
    ]


def _stacked_vectors(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Inverse of :func:`_block_stacks`."""
    return np.concatenate(
        [s.reshape(s.shape[0], s.shape[1] * s.shape[2]) for s in stacks], axis=1
    )


def star_closure_check(phi: Superoperator, spectrum: PointSpectrum) -> StarClosureReport:
    """Check that adjoints of eigenvectors are eigenvectors at the conjugate
    eigenvalue."""
    labels, values, rows = _stacked_eigenvectors(spectrum, phi.algebra)
    adjoints = _stacked_vectors(
        [s.conj().transpose(0, 2, 1) for s in _block_stacks(phi.algebra, rows)]
    )
    residual = _row_drift(phi, adjoints, values.conj())
    return StarClosureReport(
        max_residual=float(residual.max(initial=0.0)), labels=labels, residual=residual
    )


def jordan_closure_check(
    phi: Superoperator,
    spectrum: PointSpectrum,
    tol: Tolerances = DEFAULT_TOL,
) -> JordanClosureReport:
    """Check that symmetrized products of eigenvectors are eigenvectors at the
    product eigenvalue; vanishing products close vacuously.

    Residuals run over ordered pairs of basis vectors. The product is
    symmetric, so each pair is computed once, one row of products at a time.
    """
    labels, values, rows = _stacked_eigenvectors(spectrum, phi.algebra)
    stacks = _block_stacks(phi.algebra, rows)
    count = len(labels)
    residual = np.zeros((count, count))
    vanished = np.zeros((count, count), dtype=bool)
    for a in range(count):
        rest = slice(a, count)
        products = _stacked_vectors(
            [0.5 * (s[a] @ s[rest] + s[rest] @ s[a]) for s in stacks]
        )
        residual[a, rest] = residual[rest, a] = _row_drift(
            phi, products, values[a] * values[rest]
        )
        vanished[a, rest] = vanished[rest, a] = (
            np.max(np.abs(products), axis=1) <= tol.eq_tol
        )
    return JordanClosureReport(
        max_residual=float(residual.max(initial=0.0)),
        labels=labels,
        residual=residual,
        vanished=vanished,
    )


def group_closure_report(
    spectrum: PointSpectrum, closure_tol: float = MERGE_TOL
) -> GroupClosureReport:
    """Decide whether the spectral values form a multiplicative group.

    Unit-modulus values form a group exactly when they contain 1, are closed
    under conjugation, and are closed under pairwise products. Each product
    failure is listed as the index pair of its factors in ``spectrum.values``.
    """
    values = spectrum.values
    k = len(values)
    v = np.array(values, dtype=np.complex128)
    # real arithmetic rounds each product exactly as Python's lam * mu does
    products = np.empty((k, k), dtype=np.complex128)
    products.real = v.real[:, None] * v.real - v.imag[:, None] * v.imag
    products.imag = v.real[:, None] * v.imag + v.imag[:, None] * v.real
    queries = np.concatenate([[1.0 + 0.0j], v.conj(), products.ravel()])
    # every value within closure_tol of a query has its real part inside this
    # window, widened so that rounding cannot push one out
    ordered = np.sort(v)  # by real part first
    lo = np.searchsorted(ordered.real, queries.real - 2.0 * closure_tol, "left")
    hi = np.searchsorted(ordered.real, queries.real + 2.0 * closure_tol, "right")
    present = np.zeros(len(queries), dtype=bool)
    for offset in range(int(np.max(hi - lo))):
        index = lo + offset
        inside = index < hi
        present[inside] |= np.abs(queries[inside] - ordered[index[inside]]) <= closure_tol
    has_identity = bool(present[0])
    conjugation_closed = bool(np.all(present[1 : k + 1]))
    missing_pairs = np.argwhere(~present[k + 1 :].reshape(k, k)).tolist()
    return GroupClosureReport(
        is_group=has_identity and conjugation_closed and not missing_pairs,
        has_identity=has_identity,
        conjugation_closed=conjugation_closed,
        values=values,
        missing_pairs=missing_pairs,
    )


def semigroup_law_check(
    family: ContinuousFamily, pairs: Sequence[tuple[float, float]]
) -> float:
    """Largest residual of builder(s + t) against builder(s) builder(t) over
    the given (s, t) pairs."""
    worst = 0.0
    for s, t in pairs:
        lhs = family.builder(s + t).matrix
        rhs = family.builder(s).matrix @ family.builder(t).matrix
        worst = max(worst, max_norm(lhs - rhs))
    return worst


def continuous_eigen_check(
    family: ContinuousFamily,
    value: complex,
    x: AlgebraElement,
    ts: Sequence[float],
    phase: float | None = None,
) -> float:
    """Largest residual of builder(t) applied to x against lambda^t x.

    For unit-modulus lambda, lambda^t is exp(i t arg lambda) with the
    principal argument in (-pi, pi]. Eigenvectors whose phase winds outside
    the principal branch can pass the winding rate explicitly via ``phase``.
    """
    if phase is None:
        phase = cmath.phase(complex(value))
    worst = 0.0
    for t in ts:
        expected = cmath.exp(1j * phase * t)
        residual = element_norm(apply(family.builder(t), x) - expected * x)
        worst = max(worst, residual)
    return worst
