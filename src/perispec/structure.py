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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    Tolerances,
    _scalar_fit,
    adjoint,
    element_norm,
    hermitian_eig,
    scalar_multiple_of_identity,
)
from .errors import (
    InvariantViolated,
    NotEigenvector,
    NotScalarCombination,
    ProjectionMismatch,
    SplitNotEigen,
    ThetaOutOfRange,
)
from .superop import Superoperator, apply

__all__ = [
    "CASE_III_THETA_TOL",
    "CaseI",
    "CaseII",
    "CaseIII",
    "Classification",
    "case_tag",
    "normalize_eigenvector",
    "classify_eigenvector",
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


def _eigen_residual(
    phi: Superoperator, value: complex, x: AlgebraElement
) -> float:
    return element_norm(apply(phi, x) - value * x)


def _normalized(
    phi: Superoperator, value: complex, x: AlgebraElement, tol: Tolerances
) -> tuple[AlgebraElement, float]:
    """The eigenvector x scaled so that x x* + x* x = 1, and sqrt(c) for the
    scalar c with x x* + x* x = c 1 before scaling.

    The work is done on y = x / 2**e, 2**e just above the largest entry of x,
    so that no product overflows. The scaling is exact: each test compares
    what it would on x, scaled alike, and every test fails on NaN."""
    scale = element_norm(x)
    if not scale > tol.eq_tol:
        raise NotEigenvector("the zero element cannot be normalized")
    e = math.frexp(scale)[1]
    y = x.algebra._wrap([np.ldexp(p.view(float), -e).view(complex) for p in x.parts])
    residual = math.ldexp(_eigen_residual(phi, value, y), e)
    if not residual <= tol.eq_tol * max(1.0, scale):
        raise NotEigenvector(
            f"residual {residual:.3e} at eigenvalue {value!r} exceeds tolerance"
        )
    c, drift = _scalar_fit(y @ adjoint(y) + adjoint(y) @ y)
    bound = tol.eq_tol * max(math.ldexp(1.0, -2 * e), abs(c))
    if not drift <= bound:
        raise NotScalarCombination(
            "x x* + x* x is not a scalar multiple of the identity"
        )
    if not (abs(c.imag) <= bound and c.real > math.ldexp(tol.eq_tol, -2 * e)):
        c = complex(math.ldexp(c.real, 2 * e), math.ldexp(c.imag, 2 * e))
        raise NotScalarCombination(
            f"x x* + x* x equals {c!r} times the identity, which is not positive"
        )
    root = math.sqrt(c.real)
    return (1.0 / root) * y, math.ldexp(root, e)


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
    return _normalized(phi, value, x, tol)[0]


def _theta_scalar(square: AlgebraElement, tol: Tolerances) -> float:
    combo = square @ adjoint(square)
    theta = scalar_multiple_of_identity(combo, tol)
    if theta is None:
        raise NotScalarCombination(
            "x^2 (x*)^2 is not a scalar multiple of the identity"
        )
    if not abs(theta.imag) <= max(tol.eq_tol, 1e-12 * max(1.0, abs(theta))):
        raise ThetaOutOfRange(f"theta = {theta!r} is not real")
    value = float(theta.real)
    if not value > tol.eq_tol:
        raise ThetaOutOfRange(f"theta = {value:.3e} is not strictly positive")
    if not value <= 0.25 + CASE_III_THETA_TOL:
        raise ThetaOutOfRange(f"theta = {value!r} exceeds 1/4")
    return value


def _split_parts(
    xhat: AlgebraElement, low: float, high: float, tol: Tolerances
) -> tuple[AlgebraElement, AlgebraElement, AlgebraElement]:
    """The spectral projection e of x* x onto its eigenvalues near ``low``,
    and v1, v2, the parts of x |x|^-1 on e and on 1 - e, all read off one
    eigendecomposition of x* x per block.

    Verifies that every eigenvalue sits near ``low`` or ``high``, that both
    groups are populated, and that x* x is invertible."""
    gap = high - low
    window = max(1e-7 * max(1.0, high), 10.0 * tol.eq_tol)
    z = adjoint(xhat) @ xhat
    spectra = []
    for block in z.parts:
        w, v = hermitian_eig(block, tol)
        is_low = np.abs(w - low) <= window
        is_high = np.abs(w - high) <= window
        for eigenvalue, near_low, near_high in zip(w, is_low, is_high):
            if not (near_low or near_high):
                raise ProjectionMismatch(
                    f"eigenvalue {eigenvalue:.12f} of x* x is near neither "
                    f"{low:.12f} nor {high:.12f}"
                )
            if near_low and near_high:  # only possible when the gap collapses
                raise ProjectionMismatch(
                    f"cannot separate eigenvalue {eigenvalue:.12f} across gap {gap:.3e}"
                )
        spectra.append((w, v, is_low))
    seen_low = sum(int(np.count_nonzero(is_low)) for _, _, is_low in spectra)
    if seen_low in (0, xhat.algebra.total_size):
        raise ProjectionMismatch(
            "the spectrum of x* x does not split into two nonempty groups"
        )
    for w, _, _ in spectra:
        if not w[0] > tol.rank_tol:
            raise ProjectionMismatch(
                f"x* x is singular on a two-coefficient split: its smallest "
                f"eigenvalue is {w[0]:.3e}"
            )
    e, v1, v2 = [], [], []
    for x, (w, v, is_low) in zip(xhat.parts, spectra):
        lower, upper = v[:, is_low], v[:, ~is_low]
        e.append(lower @ lower.conj().T)
        v1.append(x @ (lower / np.sqrt(w[is_low])) @ lower.conj().T)
        v2.append(x @ (upper / np.sqrt(w[~is_low])) @ upper.conj().T)
    wrap = xhat.algebra._wrap
    return wrap(e), wrap(v1), wrap(v2)


def _check_case1(xhat: AlgebraElement, tol: Tolerances) -> CaseI:
    e = adjoint(xhat) @ xhat
    one = xhat.algebra.identity()
    idem = element_norm(e @ e - e)
    if not idem <= 10.0 * tol.eq_tol:
        raise ProjectionMismatch(f"x* x is not idempotent (defect {idem:.3e})")
    complement = element_norm(xhat @ adjoint(xhat) - (one - e))
    if not complement <= 10.0 * tol.eq_tol:
        raise ProjectionMismatch(
            f"x x* deviates from 1 - x* x by {complement:.3e}"
        )
    if not (element_norm(e) > tol.eq_tol and element_norm(one - e) > tol.eq_tol):
        raise ProjectionMismatch("the initial projection is trivial")
    return CaseI(v=xhat, e=e)


def classify_eigenvector(
    phi: Superoperator,
    value: complex,
    x: AlgebraElement,
    tol: Tolerances = DEFAULT_TOL,
) -> Classification:
    """Classify a peripheral eigenvector of an ergodic unital positive map.

    The element is normalized first; the original scale survives only in the
    ``scale`` field of case III. Raises the usual suspects when the input is
    not an eigenvector, the invariant scalars fail to be scalars, or the
    derived projections and partial isometries do not satisfy their defining
    relations.
    """
    xhat, root = _normalized(phi, value, x, tol)
    square = xhat @ xhat
    if element_norm(square) <= tol.eq_tol:
        return _check_case1(xhat, tol)
    theta = _theta_scalar(square, tol)
    if abs(theta - 0.25) <= CASE_III_THETA_TOL:
        u = math.sqrt(2.0) * xhat
        one = xhat.algebra.identity()
        defect = element_norm(adjoint(u) @ u - one)
        if not defect <= 10.0 * tol.eq_tol:
            raise InvariantViolated(
                f"sqrt(2) x is not unitary (defect {defect:.3e})"
            )
        return CaseIII(u=u, scale=complex(root / math.sqrt(2.0)))
    spread = math.sqrt(1.0 - 4.0 * theta)
    low = (1.0 - spread) / 2.0
    high = (1.0 + spread) / 2.0
    e, v1, v2 = _split_parts(xhat, low, high, tol)
    swap = element_norm(v1 @ adjoint(v1) - (xhat.algebra.identity() - e))
    if not swap <= 1e-7:
        raise ProjectionMismatch(
            f"the polar unitary does not exchange e with its complement "
            f"(defect {swap:.3e})"
        )
    for name, part in (("v1", v1), ("v2", v2)):
        residual = _eigen_residual(phi, value, part)
        if not residual <= max(1e-7, tol.eq_tol * max(1.0, element_norm(part))):
            raise SplitNotEigen(
                f"{name} drifts from the eigenspace by {residual:.3e}"
            )
    return CaseII(
        alpha1=math.sqrt(low),
        alpha2=math.sqrt(high),
        v1=v1,
        v2=v2,
        e=e,
        theta=theta,
    )


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
