"""Inputs on either side of a threshold, one table per decision.

Every expected answer comes from a closed form, never from perispec itself:
a row states the input, the closed-form quantity that the decision reads, and
the outcome that quantity implies against the threshold."""

import numpy as np
import pytest

from perispec import (
    BlockAlgebra,
    CaseII,
    ProjectionMismatch,
    Superoperator,
    Tolerances,
    build_example2,
    classify_eigenvector,
    point_spectrum,
    randomized_positivity_falsifier,
)
from perispec.superop import MERGE_TOL

GENERIC = np.exp(2j * np.pi / 5)


def _scaled_ex1(delta: float) -> Superoperator:
    """ex1 on M2 with its off-diagonal factors scaled to (1 + delta) lambda0
    and its conjugate: x -> [[m, (1 + delta) lambda0 x12], [(1 + delta)
    conj(lambda0) x21, m]] with m the mean of the diagonal. A pure input with
    |x12| = 1/2 has output eigenvalues 1/2 -+ (1 + delta)/2, so the least
    output eigenvalue over all states is -delta/2."""
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    m[1, 1] = (1 + delta) * GENERIC
    m[2, 2] = (1 + delta) * np.conj(GENERIC)
    return Superoperator(BlockAlgebra((2,)), m)


# delta = 2e-9 is left out: its least eigenvalue, -1e-9, sits on psd_tol.
@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 3e-9, 1e-9, 1e-10])
def test_scaled_ex1_fails_exactly_when_minus_half_delta_is_below_psd_tol(delta):
    tol = Tolerances()
    result = randomized_positivity_falsifier(_scaled_ex1(delta), tol=tol)
    assert abs(result.min_output_eig - (-delta / 2)) <= 1e-12
    assert result.passed is (-delta / 2 >= -tol.psd_tol)


# ex2 at lambda0 = i e^{i eps} has peripheral spectrum {+-1, +-lambda0,
# +-conj(lambda0)}. lambda0 and -conj(lambda0) = i e^{-i eps} lie 2 sin(eps)
# apart, and so do their negatives; eps = 5e-8 puts that distance on
# MERGE_TOL and is left out.
@pytest.mark.parametrize("eps", [1e-9, 1e-8, 2e-8, 4e-8, 6e-8, 1e-7, 1e-6])
def test_ex2_near_i_merges_exactly_when_two_sin_eps_is_within_merge_tol(eps):
    lambda0 = 1j * np.exp(1j * eps)
    spectrum = point_spectrum(build_example2(lambda0)[0])
    values = [1, -1, lambda0, -lambda0, np.conj(lambda0), -np.conj(lambda0)]
    merged = 2 * np.sin(eps) <= MERGE_TOL
    # points are sorted by (real, imaginary) part: -1 first, 1 last, and the
    # points near -i and i between them
    assert spectrum.dimensions == ((1, 2, 2, 1) if merged else (1,) * 6)
    assert all(spectrum.find(v) is not None for v in values)


# ex2 at lambda0 = i with x = alpha1 b0 + alpha2 b1, b0 and b1 the manifest's
# canonical eigenvectors at i: x* x has the eigenvalues alpha1^2 and alpha2^2,
# |alpha2^2 - alpha1^2| = 8.768e-3 apart. The split resolves iff that gap
# exceeds the window 10 eq_tol; eq_tol = 8.768e-4 sits on it and is left out.
@pytest.mark.parametrize("eq_tol", [1e-4, 5e-4, 8.6e-4, 8.8e-4, 1e-3])
def test_ex2_split_resolves_exactly_when_its_gap_exceeds_ten_eq_tol(eq_tol):
    alpha1 = 0.704
    alpha2 = np.sqrt(1.0 - alpha1**2)
    gap = abs(alpha2**2 - alpha1**2)
    phi, manifest = build_example2(1j)
    index = next(k for k, v in enumerate(manifest.expected_spectrum) if abs(v - 1j) <= 1e-12)
    b0, b1 = manifest.canonical_eigenvectors[index]
    x = alpha1 * b0 + alpha2 * b1
    tol = Tolerances(eq_tol=eq_tol)
    if gap > 10.0 * eq_tol:
        result = classify_eigenvector(phi, 1j, x, tol)
        assert isinstance(result, CaseII)
        assert abs(result.theta - (alpha1 * alpha2) ** 2) <= 1e-12
    else:
        with pytest.raises(ProjectionMismatch, match=f"cannot separate .* across gap {gap:.3e}"):
            classify_eigenvector(phi, 1j, x, tol)
