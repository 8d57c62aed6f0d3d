"""Eigenvector shapes: normalization, three-way classification, round trips."""

import dataclasses
import math

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
    PerispecError,
    ProjectionMismatch,
    SplitNotEigen,
    Superoperator,
    adjoint,
    build_example1,
    build_example2,
    case_tag,
    classify_eigenvector,
    element_norm,
    hermitian_eig,
    normalize_eigenvector,
    reconstruct,
)
from perispec import structure

from conftest import random_complex, rng_for

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


# A reference for the case-II split that decomposes x* x twice: once for the
# projection e, and once more for the polar unitary u of each block, with
# v1 = u e and v2 = u (1 - e). classify_eigenvector must give every input the
# same case or error class, and e, v1, v2 within 1e-14. This pins agreement
# with the two-decomposition construction, not that its outcomes are right.


def _reference_split_projection(z, low, high, tol):
    gap = high - low
    window = max(1e-7 * max(1.0, high), 10.0 * tol.eq_tol)
    parts = []
    seen_low = 0
    seen_high = 0
    for block in z.parts:
        w, v = hermitian_eig(block, tol)
        proj = np.zeros_like(block)
        for k, eigenvalue in enumerate(w):
            near_low = abs(eigenvalue - low) <= window
            near_high = abs(eigenvalue - high) <= window
            if not (near_low or near_high):
                raise ProjectionMismatch(f"eigenvalue {eigenvalue} is near neither")
            if near_low and near_high:
                raise ProjectionMismatch(f"cannot separate across gap {gap}")
            if near_low:
                seen_low += 1
                column = v[:, k : k + 1]
                proj = proj + column @ column.conj().T
            else:
                seen_high += 1
        parts.append(proj)
    if seen_low == 0 or seen_high == 0:
        raise ProjectionMismatch("the spectrum does not split")
    return z.algebra.element(parts)


def _reference_polar_unitary(x, tol):
    x = np.asarray(x, dtype=np.complex128)
    z = x.conj().T @ x
    w, v = hermitian_eig(0.5 * (z + z.conj().T), tol)
    if w[0] <= tol.rank_tol:
        raise ProjectionMismatch(f"smallest eigenvalue of x*x is {w[0]:.3e}")
    return x @ (v * (1.0 / np.sqrt(w))) @ v.conj().T


def _reference_classify(phi, value, x, tol):
    xhat, _ = structure._normalized(phi, value, x, tol)
    square = xhat @ xhat
    if element_norm(square) <= tol.eq_tol:
        return structure._check_case1(xhat, tol)
    theta = structure._theta_scalar(square, tol)
    if abs(theta - 0.25) <= structure.CASE_III_THETA_TOL:
        # the case-III branch never reaches the split
        return classify_eigenvector(phi, value, x, tol)
    spread = np.sqrt(1.0 - 4.0 * theta)
    low = (1.0 - spread) / 2.0
    high = (1.0 + spread) / 2.0
    e = _reference_split_projection(adjoint(xhat) @ xhat, low, high, tol)
    e_perp = xhat.algebra.identity() - e
    u = xhat.algebra.element([_reference_polar_unitary(p, tol) for p in xhat.parts])
    if element_norm(u @ e @ adjoint(u) - e_perp) > 1e-7:
        raise ProjectionMismatch("the polar unitary does not exchange e")
    v1 = u @ e
    v2 = u @ e_perp
    for part in (v1, v2):
        residual = element_norm(phi(part) - value * part)
        if residual > max(1e-7, tol.eq_tol * max(1.0, element_norm(part))):
            raise SplitNotEigen(f"residual {residual}")
    return CaseII(
        alpha1=float(np.sqrt(low)),
        alpha2=float(np.sqrt(high)),
        v1=v1,
        v2=v2,
        e=e,
        theta=theta,
    )


def _outcome(classify, phi, value, x, tol):
    try:
        return classify(phi, value, x, tol)
    except PerispecError as exc:
        return type(exc)


def _assert_matches_reference(phi, value, x, tol):
    """Asserts that classify_eigenvector and the reference agree on x, and
    returns the outcome: a classification or an error class."""
    got = _outcome(classify_eigenvector, phi, value, x, tol)
    want = _outcome(_reference_classify, phi, value, x, tol)
    if isinstance(want, type):
        assert got is want
        return got
    assert case_tag(got) == case_tag(want)
    if isinstance(want, CaseII):
        assert got.alpha1 == want.alpha1 and got.alpha2 == want.alpha2
        assert got.theta == want.theta
        for name in ("e", "v1", "v2"):
            assert element_norm(getattr(got, name) - getattr(want, name)) <= 1e-14
    return got


_SIGNS = {1j: "i", -1j: "-i"}
EX2_TWO_DIMENSIONAL = [
    pytest.param(lambda0, value, id=f"lambda0={_SIGNS[lambda0]}-value={_SIGNS[value]}")
    for lambda0 in _SIGNS
    for value in _SIGNS
]


def _eigenspace_basis(lambda0, value):
    phi, manifest = build_example2(lambda0)
    index = next(
        k for k, v in enumerate(manifest.expected_spectrum) if abs(v - value) < 1e-9
    )
    b0, b1 = manifest.canonical_eigenvectors[index]
    return phi, b0, b1


@pytest.mark.parametrize("lambda0,value", EX2_TWO_DIMENSIONAL)
def test_case2_split_matches_reference_on_seeded_combinations(lambda0, value, tol):
    phi, b0, b1 = _eigenspace_basis(lambda0, value)
    rng = rng_for(21, int(lambda0.imag > 0), int(value.imag > 0))
    tags = set()
    for _ in range(40):
        c = random_complex(rng, 2)
        outcome = _assert_matches_reference(phi, value, c[0] * b0 + c[1] * b1, tol)
        tags.add(outcome if isinstance(outcome, type) else case_tag(outcome))
    assert "II" in tags


EPSILON_LADDER = [1e-6, 1e-5, 5e-5, 1e-4, 1e-3, 2e-3, 5e-3, 1e-2]


@pytest.mark.parametrize("lambda0,value", EX2_TWO_DIMENSIONAL)
def test_case2_split_matches_reference_on_epsilon_ladders(lambda0, value, tol):
    phi, b0, b1 = _eigenspace_basis(lambda0, value)
    outcomes = []
    for eps in EPSILON_LADDER:
        for x in (b0 + eps * b1, b0 + (1.0 - eps) * b1):
            outcomes.append(_assert_matches_reference(phi, value, x, tol))
    # near b0 the modulus of x is singular: the split raises on that check
    assert ProjectionMismatch in outcomes
    assert any(isinstance(o, CaseII) for o in outcomes)


def test_case2_singular_modulus_names_the_least_eigenvalue(tol):
    phi, b0, b1 = _eigenspace_basis(1j, -1j)
    with pytest.raises(ProjectionMismatch, match="smallest eigenvalue is 1.000e-08"):
        classify_eigenvector(phi, -1j, b0 + 1e-4 * b1, tol)


@pytest.mark.parametrize("power", [-10, 1, 600, 1000])
def test_classification_is_exact_under_scaling_by_a_power_of_two(tol, power):
    """x and 2**power x classify to the same bits, up to the scale of case
    III, also where the products of 2**power x overflow."""
    for phi, manifest in (build_example1(GENERIC), build_example2(1j)):
        for value, basis in zip(manifest.expected_spectrum, manifest.canonical_eigenvectors):
            x = basis[0] + 0.5 * basis[-1]
            base = classify_eigenvector(phi, value, x, tol)
            scaled = classify_eigenvector(phi, value, math.ldexp(1.0, power) * x, tol)
            assert type(scaled) is type(base)
            for field in dataclasses.fields(base):
                got, want = getattr(scaled, field.name), getattr(base, field.name)
                if field.name == "scale":
                    assert got == math.ldexp(want.real, power)
                elif isinstance(want, float):
                    assert got == want
                else:
                    assert all(np.array_equal(p, q) for p, q in zip(got.parts, want.parts))
