"""Eigenvector shapes: normalization, three-way classification, round trips."""

import numpy as np
import pytest

from perispec import (
    BlockAlgebra,
    CaseI,
    CaseII,
    CaseIII,
    InvariantViolated,
    NotEigenvector,
    NotScalarCombination,
    Superoperator,
    adjoint,
    build_example1,
    build_example2,
    case_tag,
    classify_eigenvector,
    element_norm,
    normalize_eigenvector,
    reconstruct,
)

GENERIC = np.exp(2j * np.pi / 5)


def _mat2_element(entries):
    return BlockAlgebra((2,)).element([np.array(entries, dtype=complex)])


def test_normalize_rescales_partial_isometries(tol):
    phi, _ = build_example1(GENERIC)
    x = _mat2_element([[0.0, 3.0], [0.0, 0.0]])
    xhat = normalize_eigenvector(phi, GENERIC, x, tol)
    assert element_norm(xhat - _mat2_element([[0.0, 1.0], [0.0, 0.0]])) < 1e-12


def test_normalize_rescales_unitaries(tol):
    phi, _ = build_example1(GENERIC)
    x = _mat2_element([[1.0, 0.0], [0.0, 1.0]])
    xhat = normalize_eigenvector(phi, 1.0, x, tol)
    combined = xhat @ adjoint(xhat) + adjoint(xhat) @ xhat
    assert element_norm(combined - xhat.algebra.identity()) < 1e-12


def test_normalize_rejects_non_eigenvectors(tol):
    phi, _ = build_example1(GENERIC)
    with pytest.raises(NotEigenvector):
        normalize_eigenvector(phi, GENERIC, _mat2_element([[1, 0], [0, 0]]), tol)
    with pytest.raises(NotEigenvector):
        normalize_eigenvector(phi, GENERIC, _mat2_element([[0, 0], [0, 0]]), tol)


def test_normalize_rejects_non_scalar_combinations(tol):
    algebra = BlockAlgebra((2,))
    ident = Superoperator(algebra, np.eye(algebra.dim))
    # every element is fixed, but x x* + x* x is not scalar for a projection
    with pytest.raises(NotScalarCombination):
        normalize_eigenvector(ident, 1.0, _mat2_element([[1, 0], [0, 0]]), tol)


def _manifest_cases():
    cases = []
    for name, built in (
        ("ex1-generic", build_example1(GENERIC)),
        ("ex1-merged", build_example1(-1.0 + 0.0j)),
        ("ex2-generic", build_example2(GENERIC)),
        ("ex2-merged", build_example2(1j)),
    ):
        phi, manifest = built
        for value, tags, basis in zip(
            manifest.expected_spectrum,
            manifest.expected_classifications,
            manifest.canonical_eigenvectors,
        ):
            for tag, x in zip(tags, basis):
                cases.append(
                    pytest.param(phi, value, x, tag, id=f"{name}-{value:.2g}-{tag}")
                )
    return cases


@pytest.mark.parametrize("phi,value,x,expected_tag", _manifest_cases())
def test_canonical_eigenvectors_classify_as_documented(phi, value, x, expected_tag, tol):
    result = classify_eigenvector(phi, value, x, tol)
    assert case_tag(result) == expected_tag


@pytest.mark.parametrize("phi,value,x,expected_tag", _manifest_cases())
def test_classification_round_trips_to_the_normalized_vector(
    phi, value, x, expected_tag, tol
):
    rebuilt = reconstruct(classify_eigenvector(phi, value, x, tol))
    xhat = normalize_eigenvector(phi, value, x, tol)
    assert element_norm(rebuilt - xhat) < 1e-12


def test_case1_shape_on_nilpotent_eigenvector(tol):
    phi, _ = build_example1(GENERIC)
    result = classify_eigenvector(phi, GENERIC, _mat2_element([[0, 5], [0, 0]]), tol)
    assert isinstance(result, CaseI)
    e = result.e
    assert element_norm(e @ e - e) < 1e-12
    assert element_norm(adjoint(e) - e) < 1e-12
    assert np.allclose(e.parts[0], [[0, 0], [0, 1]], atol=1e-12)
    v = result.v
    assert element_norm(adjoint(v) @ v - e) < 1e-12
    assert element_norm(v @ adjoint(v) - (e.algebra.identity() - e)) < 1e-12


def test_case2_shape_on_two_coefficient_combination(tol):
    phi, manifest = build_example2(1j)
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - 1j) < 1e-9
    )
    v1, v2 = manifest.canonical_eigenvectors[index]
    result = classify_eigenvector(phi, 1j, 0.6 * v1 + 0.8 * v2, tol)
    assert isinstance(result, CaseII)
    assert result.alpha1 == pytest.approx(0.6, abs=1e-12)
    assert result.alpha2 == pytest.approx(0.8, abs=1e-12)
    assert result.theta == pytest.approx(0.2304, abs=1e-12)
    assert result.alpha1**2 + result.alpha2**2 == pytest.approx(1.0, abs=1e-12)
    e = result.e
    assert element_norm(e @ e - e) < 1e-12
    # the split pieces are partial isometries with complementary supports
    assert element_norm(adjoint(result.v1) @ result.v1 - e) < 1e-11
    assert element_norm(
        adjoint(result.v2) @ result.v2 - (e.algebra.identity() - e)
    ) < 1e-11
    for piece in (result.v1, result.v2):
        assert element_norm(phi(piece) - 1j * piece) < 1e-11


def test_case2_is_invariant_under_global_phase(tol):
    phi, manifest = build_example2(1j)
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - 1j) < 1e-9
    )
    v1, v2 = manifest.canonical_eigenvectors[index]
    x = 0.6 * v1 + 0.8 * v2
    base = classify_eigenvector(phi, 1j, x, tol)
    rotated = classify_eigenvector(phi, 1j, np.exp(0.7j) * x, tol)
    assert isinstance(base, CaseII) and isinstance(rotated, CaseII)
    assert rotated.theta == pytest.approx(base.theta, abs=1e-12)
    assert element_norm(rotated.e - base.e) < 1e-10
    assert rotated.alpha1 == pytest.approx(base.alpha1, abs=1e-12)


def test_case3_shape_on_unitary_eigenvector(tol):
    phi, _ = build_example1(GENERIC)
    result = classify_eigenvector(phi, 1.0, _mat2_element([[3, 0], [0, 3]]), tol)
    assert isinstance(result, CaseIII)
    u = result.u
    assert element_norm(u @ adjoint(u) - u.algebra.identity()) < 1e-12
    # x = scale * u recovers the original magnitude
    assert result.scale == pytest.approx(3.0, abs=1e-12)
    assert element_norm(complex(result.scale) * u - _mat2_element([[3, 0], [0, 3]])) < 1e-11


def test_case3_on_equal_weight_combination(tol):
    phi, manifest = build_example2(1j)
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - 1j) < 1e-9
    )
    v1, v2 = manifest.canonical_eigenvectors[index]
    result = classify_eigenvector(phi, 1j, v1 + v2, tol)
    assert isinstance(result, CaseIII)
    assert element_norm(result.u @ adjoint(result.u) - result.u.algebra.identity()) < 1e-11


def test_reconstruct_rejects_misordered_coefficients(tol):
    phi, manifest = build_example2(1j)
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - 1j) < 1e-9
    )
    v1, v2 = manifest.canonical_eigenvectors[index]
    result = classify_eigenvector(phi, 1j, 0.6 * v1 + 0.8 * v2, tol)
    swapped = CaseII(
        alpha1=result.alpha2,
        alpha2=result.alpha1,
        v1=result.v1,
        v2=result.v2,
        e=result.e,
        theta=result.theta,
    )
    with pytest.raises(InvariantViolated):
        reconstruct(swapped)


def test_case_tags_cover_all_three_shapes(tol):
    phi, manifest = build_example2(1j)
    tags = {t for tags in manifest.expected_classifications for t in tags}
    assert {"I", "III"} <= tags
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - 1j) < 1e-9
    )
    v1, v2 = manifest.canonical_eigenvectors[index]
    combo = classify_eigenvector(phi, 1j, 0.3 * v1 + np.sqrt(0.91) * v2, tol)
    assert case_tag(combo) == "II"

