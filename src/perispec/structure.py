"""Structure of peripheral eigenvectors of ergodic unital positive maps.

After normalizing an eigenvector x so that x x* + x* x = 1, exactly one of
three shapes applies:

  I.   x is a partial isometry with x^2 = 0 whose initial and final
       projections sum to the identity.
  II.  x = alpha1 v1 + alpha2 v2 with 0 < alpha1 < alpha2, where v1, v2 are
       partial isometries that swap a projection e with its complement.
  III. x is a unitary divided by sqrt(2).

The branch is decided by the scalar theta = x^2 (x*)^2: absent (case I),
strictly inside (0, 1/4) (case II), or equal to 1/4 (case III). In case II
the coefficients are alpha = sqrt((1 -+ sqrt(1 - 4 theta)) / 2), e is the
spectral projection of x* x for the smaller eigenvalue, and v1, v2 are the
parts of x |x|^-1 on e and on 1 - e, read off the same eigendecomposition of
x* x.

The eigenvectors of one map are classified as one stack, stage by stage:
each test runs once on every row still alive, with one product per run of
equal blocks for all of them, and a row that fails a test settles with the typed error
it would raise alone. :func:`classify_eigenvector` and
:func:`normalize_eigenvector` are one-row calls of the same code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    BlockAlgebra,
    Tolerances,
    _hermitian_defects,
    _kept,
    _lapack,
    _raised,
    _Rows,
    vectorize,
)
from .errors import (
    AlgebraMismatch,
    DimensionMismatch,
    InvariantViolated,
    NotEigenvector,
    NotHermitian,
    NotScalarCombination,
    PerispecError,
    ProjectionMismatch,
    SplitNotEigen,
    ThetaOutOfRange,
)
from .superop import Superoperator, _block_stacks, _row_drift, _stacked_vectors

__all__ = [
    "CASE_III_THETA_TOL",
    "CaseI",
    "CaseII",
    "CaseIII",
    "Classification",
    "case_tag",
    "normalize_eigenvector",
    "classify_eigenvector",
    "classify_eigenvectors",
    "reconstruct",
]

# Width of the theta window around 1/4 inside which an eigenvector is treated
# as a scaled unitary rather than a genuine two-coefficient split.
CASE_III_THETA_TOL = 1e-6


@dataclass(frozen=True)
class CaseI:
    """Partial isometry v with v^2 = 0, initial projection e, final 1 - e."""

    v: AlgebraElement
    e: AlgebraElement


@dataclass(frozen=True)
class CaseII:
    """x = alpha1 v1 + alpha2 v2 with v1, v2 partial isometries exchanging
    e and its complement; theta = (alpha1 alpha2)^2."""

    alpha1: float
    alpha2: float
    v1: AlgebraElement
    v2: AlgebraElement
    e: AlgebraElement
    theta: float


@dataclass(frozen=True)
class CaseIII:
    """x = scale * u for a unitary u; the normalized form is u / sqrt(2)."""

    u: AlgebraElement
    scale: complex


Classification = CaseI | CaseII | CaseIII


def case_tag(classification: Classification) -> str:
    return {CaseI: "I", CaseII: "II", CaseIII: "III"}[type(classification)]


# An element stack holds one element per row, as superop._block_stacks
# gives it: for each run of consecutive blocks of one side n, a
# (rows, blocks, n, n) array whose [j, b] matrix is block b of the run in the
# j-th element. Each helper below does for every row at once what the
# matching AlgebraElement operation does for one element, to the same bits:
# numpy's stacked products and eigendecompositions give each matrix the bits
# it gets alone.


def _element(algebra: BlockAlgebra, a: list, j: int) -> AlgebraElement:
    return algebra._wrap([m for s in a for m in s[j]])


def _products(a: list, b: list) -> list:
    return [p @ q for p, q in zip(a, b)]


def _adjoints(a: list) -> list:
    return [s.conj().swapaxes(-1, -2) for s in a]


def _complements(a: list) -> list:
    """1 - a."""
    return [np.eye(s.shape[-1]) - s for s in a]


def _norms(a: list) -> np.ndarray:
    """Per row, the largest entry magnitude across all blocks."""
    return functools.reduce(np.maximum, [np.abs(s).max(axis=(1, 2, 3)) for s in a])


def _distances(a: list, b: list) -> np.ndarray:
    """Per row, the largest entry magnitude of a - b."""
    return _norms([p - q for p, q in zip(a, b)])


def _scalar_fits(a: list, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, c = trace / size and the largest entry of the element minus
    c 1, as :func:`~perispec.algebra._scalar_fit` computes them: the traces
    of the blocks are summed in block order."""
    trace = sum(t for s in a for t in np.trace(s, axis1=2, axis2=3).T)
    c = np.empty_like(trace)
    c.real = trace.real / size
    c.imag = trace.imag / size
    return c, _norms([s - c[:, None, None, None] * np.eye(s.shape[-1]) for s in a])


def _normalized(
    phi: Superoperator, values: list, vectors, tol: Tolerances
) -> tuple[_Rows, np.ndarray, list, np.ndarray]:
    """The rows of ``vectors`` with their eigenvalues, each eigenvector
    scaled so that x x* + x* x = 1, as an element stack, and sqrt(c) for the
    scalar c with x x* + x* x = c 1 before scaling. The rows that fail are
    settled with their error.

    The work is done on y = x / 2**e, 2**e just above the largest entry of x,
    so that no product overflows. The scaling is exact: each test compares
    what it would on x, scaled alike, and every test fails on NaN."""
    algebra = phi.algebra
    vectors = np.ascontiguousarray(vectors, dtype=np.complex128)
    if vectors.shape != (len(values), algebra.dim):
        raise DimensionMismatch(
            f"{len(values)} values and vectors of shape {vectors.shape} do not "
            f"fit dim {algebra.dim}"
        )
    value = np.array(values, dtype=np.complex128).reshape(-1)
    if not (np.isfinite(vectors).all() and np.isfinite(value).all()):
        raise ValueError("eigenvalues and eigenvector entries must be finite")
    rows = _Rows(np.arange(len(values)), [None] * len(values))
    scale = np.abs(vectors).max(axis=1)
    keep = rows.settle([
        (~(scale > tol.eq_tol),
         lambda j: NotEigenvector("the zero element cannot be normalized")),
    ])
    value, vectors, scale = _kept(keep, value, vectors, scale)
    e = np.frexp(scale)[1]
    y = np.ldexp(vectors.view(np.float64), -e[:, None]).view(np.complex128)
    # an infinite residual or bound, which only a tiny eq_tol allows, is
    # decided by the comparisons below
    with np.errstate(over="ignore"):
        residual = np.ldexp(_row_drift(phi, y, value), e)
        floor = np.ldexp(1.0, -2 * e)
    y = _block_stacks(algebra, y)
    c, drift = _scalar_fits(
        [p @ q + q @ p for p, q in zip(y, _adjoints(y))], algebra.total_size
    )
    bound = tol.eq_tol * np.maximum(floor, np.abs(c))
    keep = rows.settle([
        (~(residual <= tol.eq_tol * np.maximum(1.0, scale)),
         lambda j: NotEigenvector(
             f"residual {residual[j]:.3e} at eigenvalue {values[rows.index[j]]!r} "
             "exceeds tolerance"
         )),
        (~(drift <= bound),
         lambda j: NotScalarCombination(
             "x x* + x* x is not a scalar multiple of the identity"
         )),
        (~((np.abs(c.imag) <= bound) & (c.real > np.ldexp(tol.eq_tol, -2 * e))),
         lambda j: NotScalarCombination(
             f"x x* + x* x equals "
             f"{complex(math.ldexp(c[j].real, 2 * e[j]), math.ldexp(c[j].imag, 2 * e[j]))!r}"
             " times the identity, which is not positive"
         )),
    ])
    value, y, e, c = _kept(keep, value, y, e, c)
    root = np.sqrt(c.real)
    return rows, value, [(1.0 / root)[:, None, None, None] * s for s in y], np.ldexp(root, e)


def normalize_eigenvector(
    phi: Superoperator,
    value: complex,
    x: AlgebraElement,
    tol: Tolerances = DEFAULT_TOL,
) -> AlgebraElement:
    """Scale an eigenvector so that x x* + x* x = 1.

    Requires x to be an eigenvector of phi at ``value`` and x x* + x* x to be
    a positive scalar multiple of the identity (automatic for ergodic maps).
    """
    _check_algebra(phi, x)
    rows, _, xhat, _ = _normalized(phi, [value], vectorize(x)[None], tol)
    _raised(rows.outcomes[0])
    return _element(phi.algebra, xhat, 0)


def _check_algebra(phi: Superoperator, x: AlgebraElement) -> None:
    if x.algebra != phi.algebra:
        raise AlgebraMismatch("element does not live in the superoperator's algebra")


def _case1(rows: _Rows, algebra: BlockAlgebra, xhat: list, tol: Tolerances) -> None:
    e = _products(_adjoints(xhat), xhat)
    rest = _complements(e)
    idem = _distances(_products(e, e), e)
    complement = _distances(_products(xhat, _adjoints(xhat)), rest)
    keep = rows.settle([
        (~(idem <= 10.0 * tol.eq_tol),
         lambda j: ProjectionMismatch(f"x* x is not idempotent (defect {idem[j]:.3e})")),
        (~(complement <= 10.0 * tol.eq_tol),
         lambda j: ProjectionMismatch(
             f"x x* deviates from 1 - x* x by {complement[j]:.3e}"
         )),
        (~((_norms(e) > tol.eq_tol) & (_norms(rest) > tol.eq_tol)),
         lambda j: ProjectionMismatch("the initial projection is trivial")),
    ])
    xhat, e = _kept(keep, xhat, e)
    rows.finish(lambda j: CaseI(v=_element(algebra, xhat, j), e=_element(algebra, e, j)))


def _case3(
    rows: _Rows, algebra: BlockAlgebra, xhat: list, root: np.ndarray, tol: Tolerances
) -> None:
    u = [math.sqrt(2.0) * s for s in xhat]
    defect = _norms([s - np.eye(s.shape[-1]) for s in _products(_adjoints(u), u)])
    keep = rows.settle([
        (~(defect <= 10.0 * tol.eq_tol),
         lambda j: InvariantViolated(f"sqrt(2) x is not unitary (defect {defect[j]:.3e})")),
    ])
    u, root = _kept(keep, u, root)
    rows.finish(
        lambda j: CaseIII(u=_element(algebra, u, j), scale=complex(root[j] / math.sqrt(2.0)))
    )


def _stray_check(
    z: np.ndarray, low: np.ndarray, high: np.ndarray, window: np.ndarray, tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The eigenvalues and eigenvectors of each matrix of the stack z, the
    x* x of a run of blocks, and the check, block by block, that each one is
    Hermitian and has every eigenvalue near ``low`` or ``high`` and not near
    both."""
    defect, nonhermitian = _hermitian_defects(z, tol)
    w, v = _lapack(np.linalg.eigh, z)
    is_low = np.abs(w - low[:, None, None]) <= window[:, None, None]
    is_high = np.abs(w - high[:, None, None]) <= window[:, None, None]
    near_neither = ~(is_low | is_high)
    stray = near_neither | (is_low & is_high)
    broken = nonhermitian | stray.any(axis=2)
    block = np.argmax(broken, axis=1)

    def error(j: int) -> PerispecError:
        b = block[j]
        if nonhermitian[j, b]:
            return NotHermitian(f"matrix deviates from Hermitian by {defect[j, b]:.3e}")
        i = np.argmax(stray[j, b])
        if near_neither[j, b, i]:
            return ProjectionMismatch(
                f"eigenvalue {w[j, b, i]:.12f} of x* x is near neither "
                f"{low[j]:.12f} nor {high[j]:.12f}"
            )
        return ProjectionMismatch(
            f"cannot separate eigenvalue {w[j, b, i]:.12f} across gap "
            f"{high[j] - low[j]:.3e}"
        )

    return w, v, is_low, (broken.any(axis=1), error)


def _singular_check(w: np.ndarray, tol: Tolerances) -> tuple:
    """The check that the least eigenvalue of each block, w[:, b, 0], is
    above ``rank_tol``, block by block."""
    singular = ~(w[:, :, 0] > tol.rank_tol)
    block = np.argmax(singular, axis=1)
    return (
        singular.any(axis=1),
        lambda j: ProjectionMismatch(
            f"x* x is singular on a two-coefficient split: its smallest "
            f"eigenvalue is {w[j, block[j], 0]:.3e}"
        ),
    )


def _split_parts(x: np.ndarray, w: np.ndarray, v: np.ndarray, is_low: np.ndarray) -> np.ndarray:
    """e, v1 and v2 of each matrix of the stack x, a run of blocks: e is the
    spectral projection of x* x = v diag(w) v* on the eigenvalues near low,
    and v1, v2 are the parts of x |x|^-1 on e and on 1 - e. The eigenvalues
    near low come first, so the matrices with as many of them share shapes."""
    shape, n = x.shape, x.shape[-1]
    x, w, v = x.reshape(-1, n, n), w.reshape(-1, n), v.reshape(-1, n, n)
    lows = is_low.reshape(-1, n).sum(axis=1)
    parts = np.empty((3, *x.shape), dtype=np.complex128)
    for count in set(lows.tolist()):  # np.unique would import numpy.ma
        group = lows == count
        vg, wg = v[group], w[group]
        lower, upper = vg[:, :, :count], vg[:, :, count:]
        lower_h, upper_h = _adjoints([lower, upper])
        parts[0, group] = lower @ lower_h
        parts[1, group] = x[group] @ (lower / np.sqrt(wg[:, None, :count])) @ lower_h
        parts[2, group] = x[group] @ (upper / np.sqrt(wg[:, None, count:])) @ upper_h
    return parts.reshape(3, *shape)


def _eigen_check(
    phi: Superoperator, name: str, part: list, value: np.ndarray, tol: Tolerances
) -> tuple:
    """The check that each element of the stack ``part``, named ``name``, is
    an eigenvector of phi at its row's ``value``."""
    drift = _row_drift(phi, _stacked_vectors(part), value)
    return (
        ~(drift <= np.maximum(1e-7, tol.eq_tol * np.maximum(1.0, _norms(part)))),
        lambda j: SplitNotEigen(f"{name} drifts from the eigenspace by {drift[j]:.3e}"),
    )


def _case2(
    rows: _Rows,
    phi: Superoperator,
    value: np.ndarray,
    xhat: list,
    theta: np.ndarray,
    tol: Tolerances,
) -> None:
    spread = np.sqrt(1.0 - 4.0 * theta)
    low = (1.0 - spread) / 2.0
    high = (1.0 + spread) / 2.0
    window = np.maximum(1e-7 * np.maximum(1.0, high), 10.0 * tol.eq_tol)
    # every block is checked for stray eigenvalues before the groups are
    # counted, and every block for a singular x* x after that
    spectra = [_stray_check(z, low, high, window, tol) for z in _products(_adjoints(xhat), xhat)]
    seen_low = sum(is_low.sum(axis=(1, 2)) for _, _, is_low, _ in spectra)
    keep = rows.settle([
        *(check for *_, check in spectra),
        ((seen_low == 0) | (seen_low == phi.algebra.total_size),
         lambda j: ProjectionMismatch(
             "the spectrum of x* x does not split into two nonempty groups"
         )),
        *(_singular_check(w, tol) for w, *_ in spectra),
    ])
    if not len(rows.index):
        return
    value, xhat, theta, low, high = _kept(keep, value, xhat, theta, low, high)
    e, v1, v2 = zip(
        *(_split_parts(x, *_kept(keep, w, v, is_low)) for x, (w, v, is_low, _) in zip(xhat, spectra))
    )
    swap = _distances(_products(v1, _adjoints(v1)), _complements(e))
    keep = rows.settle([
        (~(swap <= 1e-7),
         lambda j: ProjectionMismatch(
             f"the polar unitary does not exchange e with its complement "
             f"(defect {swap[j]:.3e})"
         )),
        _eigen_check(phi, "v1", v1, value, tol),
        _eigen_check(phi, "v2", v2, value, tol),
    ])
    theta, low, high, e, v1, v2 = _kept(keep, theta, low, high, list(e), list(v1), list(v2))
    algebra = phi.algebra
    rows.finish(
        lambda j: CaseII(
            alpha1=math.sqrt(low[j]),
            alpha2=math.sqrt(high[j]),
            v1=_element(algebra, v1, j),
            v2=_element(algebra, v2, j),
            e=_element(algebra, e, j),
            theta=float(theta[j]),
        )
    )


def classify_eigenvectors(
    phi: Superoperator,
    values: Sequence[complex],
    vectors: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> list[Classification | PerispecError]:
    """Classify peripheral eigenvectors of an ergodic unital positive map,
    given as the rows of ``vectors`` (vectorizations) with one eigenvalue
    each in ``values``.

    Returns, per row, its classification, or the typed error that
    :func:`classify_eigenvector` raises on it alone. The rows run as one
    stack through the stages below, each on the rows still alive: the
    normalization of :func:`normalize_eigenvector`, then ||x^2|| and the
    case I checks, the fit of theta and its range, the case III unitarity
    check, and for case II one stacked eigendecomposition of x* x per run of
    equal blocks, the swap check and the eigen-residuals of v1 and v2.
    """
    algebra = phi.algebra
    rows, value, xhat, root = _normalized(phi, list(values), vectors, tol)
    square = _products(xhat, xhat)
    nilpotent = _norms(square) <= tol.eq_tol
    if nilpotent.any():
        _case1(rows.split(nilpotent), algebra, *_kept(nilpotent, xhat), tol)
        value, xhat, root, square = _kept(~nilpotent, value, xhat, root, square)
    if not len(rows.index):
        return rows.outcomes
    theta, drift = _scalar_fits(_products(square, _adjoints(square)), algebra.total_size)
    size, real = np.abs(theta), theta.real
    keep = rows.settle([
        (~(drift <= tol.eq_tol * np.maximum(1.0, size)),
         lambda j: NotScalarCombination(
             "x^2 (x*)^2 is not a scalar multiple of the identity"
         )),
        (~(np.abs(theta.imag) <= np.maximum(tol.eq_tol, 1e-12 * np.maximum(1.0, size))),
         lambda j: ThetaOutOfRange(f"theta = {complex(theta[j])!r} is not real")),
        (~(real > tol.eq_tol),
         lambda j: ThetaOutOfRange(f"theta = {real[j]:.3e} is not strictly positive")),
        (~(real <= 0.25 + CASE_III_THETA_TOL),
         lambda j: ThetaOutOfRange(f"theta = {float(real[j])!r} exceeds 1/4")),
    ])
    value, xhat, root, theta = _kept(keep, value, xhat, root, real)
    unitary = np.abs(theta - 0.25) <= CASE_III_THETA_TOL
    if unitary.any():
        _case3(rows.split(unitary), algebra, *_kept(unitary, xhat, root), tol)
        value, xhat, theta = _kept(~unitary, value, xhat, theta)
    if len(rows.index):
        _case2(rows, phi, value, xhat, theta, tol)
    return rows.outcomes


def classify_eigenvector(
    phi: Superoperator,
    value: complex,
    x: AlgebraElement,
    tol: Tolerances = DEFAULT_TOL,
) -> Classification:
    """Classify a peripheral eigenvector of an ergodic unital positive map:
    a one-row :func:`classify_eigenvectors` that raises the row's error.

    The element is normalized first; the original scale survives only in the
    ``scale`` field of case III. Raises the usual suspects when the input is
    not an eigenvector, the invariant scalars fail to be scalars, or the
    derived projections and partial isometries do not satisfy their defining
    relations.
    """
    _check_algebra(phi, x)
    (outcome,) = classify_eigenvectors(phi, [value], vectorize(x)[None], tol)
    return _raised(outcome)


def reconstruct(classification: Classification) -> AlgebraElement:
    """Rebuild the normalized eigenvector from its classification."""
    if isinstance(classification, CaseI):
        return classification.v
    if isinstance(classification, CaseII):
        if not 0.0 < classification.alpha1 < classification.alpha2:
            raise InvariantViolated(
                f"coefficients ({classification.alpha1}, {classification.alpha2}) "
                "are not ordered in (0, 1)"
            )
        return (
            classification.alpha1 * classification.v1
            + classification.alpha2 * classification.v2
        )
    if isinstance(classification, CaseIII):
        return (1.0 / math.sqrt(2.0)) * classification.u
    raise TypeError(f"not a classification: {classification!r}")
