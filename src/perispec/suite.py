"""Acceptance criteria, runnable from the CLI and from the test suite.

Each criterion is a function returning a :class:`CriterionResult`; thresholds
are part of the acceptance contract and are hard-coded here rather than
derived from the caller's tolerances. All sampling derives from the given
seed, so two runs with the same seed and sample count agree exactly.
"""

from __future__ import annotations

import cmath
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    BlockAlgebra,
    Tolerances,
    _raised,
    adjoint,
    element_norm,
    hermitian_eig,
    max_norm,
)
from .errors import PerispecError
from .positivity import (
    Block2Matrix,
    assemble,
    complete_positivity,
    congruence,
    corner_swap,
    criterion_commuting_stack,
    criterion_epsilon_prime_stack,
    criterion_epsilon_stack,
    offdiag_swap_stack,
    oracle_psd_stack,
    randomized_positivity_falsifier,
)
from .presets import (
    build_example1,
    build_example1_continuous,
    build_example2,
    build_example2_continuous,
)
from .structure import (
    CaseII,
    case_tag,
    classify_eigenvector,
    normalize_eigenvector,
    reconstruct,
)
from .superop import (
    Superoperator,
    ergodicity_check,
    group_closure_report,
    invariant_state,
    jordan_closure_check,
    point_spectrum,
    star_closure_check,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

GENERIC_LAMBDA = cmath.exp(2j * cmath.pi / 5)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    title: str
    passed: bool
    details: dict


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _complex(parts: np.ndarray) -> np.ndarray:
    """real + 1j imag, from an array whose axis 0 holds real and imag."""
    real, imag = parts
    return real + 1j * imag


def _random_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Complex normal draws whose real parts come from the generator before
    their imaginary parts, both drawn by one call."""
    return _complex(rng.standard_normal((2, *shape)))


def _near(a: complex, b: complex, tol: float = 1e-9) -> bool:
    return abs(complex(a) - complex(b)) <= tol


def criterion_01(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Generic single-block family: three-point spectrum, no group closure."""
    lam = GENERIC_LAMBDA
    phi, _ = build_example1(lam)
    spectrum = point_spectrum(phi, tol)
    values = spectrum.values
    expected = sorted([1.0 + 0.0j, lam, lam.conjugate()], key=lambda z: (z.real, z.imag))
    spectrum_ok = len(values) == 3 and all(
        _near(v, e) for v, e in zip(values, expected)
    )
    dims_ok = spectrum.dimensions == (1, 1, 1)
    closure = group_closure_report(spectrum)
    missing_has_square = any(
        _near(l, lam) and _near(m, lam) and _near(p, lam * lam)
        for l, m, p in closure.missing
    )
    passed = spectrum_ok and dims_ok and (not closure.is_group) and missing_has_square
    return CriterionResult(
        "c01",
        "generic single-block spectrum {1, lam, conj(lam)} is not a group",
        passed,
        {
            "spectrum": [[v.real, v.imag] for v in values],
            "dimensions": list(spectrum.dimensions),
            "is_group": closure.is_group,
            "missing_count": len(closure.missing),
            "missing_contains_lambda_squared": missing_has_square,
        },
    )


def criterion_02(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """At lam = -1 the two rotation sectors merge into a 2-dim eigenspace."""
    phi, _ = build_example1(-1.0 + 0.0j)
    spectrum = point_spectrum(phi, tol)
    point = spectrum.find(-1.0 + 0.0j)
    if point is None:
        return CriterionResult(
            "c02", "merged eigenspace at -1 is two-dimensional", False,
            {"error": "-1 not in spectrum"},
        )
    two_points = (
        len(spectrum.points) == 2 and spectrum.find(1.0 + 0.0j) is not None
    )
    dims_ok = two_points and point.dimension == 2
    diag_leak = 0.0
    coeffs = np.zeros((2, 2), dtype=np.complex128)
    for row, x in enumerate(point.basis[:2]):
        block = x.parts[0]
        diag_leak = max(diag_leak, abs(block[0, 0]), abs(block[1, 1]))
        coeffs[row, 0] = block[0, 1]
        coeffs[row, 1] = block[1, 0]
    smin = float(np.linalg.svd(coeffs, compute_uv=False)[-1]) if dims_ok else 0.0
    passed = dims_ok and diag_leak <= 1e-9 and smin >= 1.0 - 1e-6
    return CriterionResult(
        "c02",
        "merged eigenspace at -1 is two-dimensional and spans the off-diagonal",
        passed,
        {
            "dimension": point.dimension,
            "diagonal_leak": diag_leak,
            "offdiag_min_singular_value": smin,
        },
    )


def criterion_03(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Eight angles: ergodic, maximally mixed invariant state, positive by
    sampling, never completely positive (Choi minimum -1/2); and the
    closed-form invariant state of a unital map that is not trace preserving."""
    worst = {
        "state_deviation": 0.0,
        "falsifier_min": np.inf,
        "choi_deviation": 0.0,
    }
    all_ergodic = True
    all_faithful = True
    mixed = BlockAlgebra((2,)).element([np.eye(2) / 2.0])
    for k in range(1, 9):
        lam = cmath.exp(2j * cmath.pi * k / 9.0)
        phi, _ = build_example1(lam)
        spectrum = point_spectrum(phi, tol)
        all_ergodic = all_ergodic and ergodicity_check(phi, tol, spectrum)
        state = invariant_state(phi, tol, spectrum)
        all_faithful = all_faithful and state.faithful
        worst["state_deviation"] = max(
            worst["state_deviation"],
            element_norm(state.rho - mixed),
        )
        falsifier = randomized_positivity_falsifier(phi, samples, seed, tol)
        worst["falsifier_min"] = min(worst["falsifier_min"], falsifier.min_output_eig)
        _, least, _, _ = complete_positivity(phi, tol)
        worst["choi_deviation"] = max(worst["choi_deviation"], abs(least - (-0.5)))
    # x -> sum_jk P_jk E_jk x E_kj sends x to the diagonal matrix P diag(x):
    # unital, as P is row-stochastic, but not trace preserving, so its dual
    # fixes the stationary law of P, (1/4, 3/4), not the maximally mixed state
    markov = np.zeros((4, 4))
    markov[np.ix_([0, 3], [0, 3])] = [[0.7, 0.3], [0.1, 0.9]]
    state = invariant_state(Superoperator(mixed.algebra, markov), tol)
    stationary = element_norm(state.rho - mixed.algebra.element([np.diag([0.25, 0.75])]))
    passed = (
        all_ergodic
        and all_faithful
        and worst["state_deviation"] <= 1e-9
        and worst["falsifier_min"] >= -1e-9
        and worst["choi_deviation"] <= 1e-9
        and stationary <= 1e-12
    )
    return CriterionResult(
        "c03",
        "eight-angle grid: ergodic, mixed invariant state, positive but not CP",
        passed,
        {
            "angles": 8,
            "samples_per_angle": samples,
            "ergodic": all_ergodic,
            "faithful": all_faithful,
            "max_state_deviation": worst["state_deviation"],
            "min_falsifier_eig": float(worst["falsifier_min"]),
            "max_choi_min_eig_deviation_from_minus_half": worst["choi_deviation"],
            "stationary_state_deviation": stationary,
        },
    )


def criterion_04(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Generic two-block family: six-point non-group spectrum with unitary
    and square-zero eigenvector shapes."""
    lam = GENERIC_LAMBDA
    phi, manifest = build_example2(lam)
    spectrum = point_spectrum(phi, tol)
    six_ok = len(spectrum.values) == 6 and spectrum.dimensions == (1,) * 6
    match_ok = all(
        spectrum.find(v) is not None for v in manifest.expected_spectrum
    )
    closure = group_closure_report(spectrum)
    tags = {}
    for target, expected_tag in ((-1.0 + 0.0j, "III"), (lam, "I")):
        point = spectrum.find(target)
        if point is None:
            tags[str(expected_tag)] = "missing"
            continue
        result = classify_eigenvector(phi, point.value, point.basis[0], tol)
        tags[expected_tag] = case_tag(result)
    passed = (
        six_ok
        and match_ok
        and not closure.is_group
        and tags.get("III") == "III"
        and tags.get("I") == "I"
    )
    return CriterionResult(
        "c04",
        "generic two-block spectrum has six points, no group, cases III and I",
        passed,
        {
            "spectrum": [[v.real, v.imag] for v in spectrum.values],
            "dimensions": list(spectrum.dimensions),
            "is_group": closure.is_group,
            "case_at_minus_one": tags.get("III"),
            "case_at_lambda": tags.get("I"),
        },
    )


def criterion_05(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Merged two-block family at lam = i: group spectrum, two-dimensional
    eigenspaces, exact two-coefficient split."""
    phi, manifest = build_example2(1j)
    spectrum = point_spectrum(phi, tol)
    expected_values = [1.0 + 0.0j, -1.0 + 0.0j, 1j, -1j]
    group_ok = (
        len(spectrum.values) == 4
        and all(spectrum.find(v) is not None for v in expected_values)
        and group_closure_report(spectrum).is_group
    )
    pt_i = spectrum.find(1j)
    pt_mi = spectrum.find(-1j)
    dims_ok = pt_i is not None and pt_mi is not None and pt_i.dimension == 2 and pt_mi.dimension == 2
    index_i = next(
        k for k, v in enumerate(manifest.expected_spectrum) if _near(v, 1j)
    )
    v1, v2 = manifest.canonical_eigenvectors[index_i]
    combo = 0.6 * v1 + 0.8 * v2
    result = classify_eigenvector(phi, 1j, combo, tol)
    split_ok = isinstance(result, CaseII)
    theta_dev = z_dev = np.inf
    if isinstance(result, CaseII):
        theta_dev = abs(result.theta - 0.2304)
        xhat = normalize_eigenvector(phi, 1j, combo, tol)
        z = adjoint(xhat) @ xhat
        eigs = np.concatenate([hermitian_eig(p, tol)[0] for p in z.parts])
        z_dev = max(
            float(min(abs(e - 0.36), abs(e - 0.64))) for e in eigs
        )
        has_both = any(abs(e - 0.36) <= 1e-9 for e in eigs) and any(
            abs(e - 0.64) <= 1e-9 for e in eigs
        )
        split_ok = split_ok and has_both
    equal_combo = (1.0 / np.sqrt(2.0)) * (v1 + v2)
    equal_tag = case_tag(classify_eigenvector(phi, 1j, equal_combo, tol))
    passed = (
        group_ok
        and dims_ok
        and split_ok
        and theta_dev <= 1e-9
        and z_dev <= 1e-9
        and equal_tag == "III"
    )
    return CriterionResult(
        "c05",
        "merged spectrum {1,-1,i,-i} is a group; split eigenvector has "
        "theta = 0.2304 and z spectrum {0.36, 0.64}",
        passed,
        {
            "is_group": group_ok,
            "dimensions_at_i_minus_i": [
                pt_i.dimension if pt_i else 0,
                pt_mi.dimension if pt_mi else 0,
            ],
            "theta_deviation": float(theta_dev),
            "z_spectrum_deviation": float(z_dev),
            "equal_combination_case": equal_tag,
        },
    )


def _by_side(trials: list[tuple], decide: Callable) -> list:
    """The per-row outcomes of ``decide``, called once per side, smallest
    first, on stacks of one field each of that side's trials, in trial order.
    Each trial is dropped from ``trials`` once stacked, to free its arrays."""
    outcomes = [None] * len(trials)
    sides: dict[int, list[int]] = {}
    for i, trial in enumerate(trials):
        sides.setdefault(trial[0].shape[-1], []).append(i)
    for side in sorted(sides):
        stacks = [np.stack(field) for field in zip(*(trials[i] for i in sides[side]))]
        for i in sides[side]:
            trials[i] = None
        for i, outcome in zip(sides[side], decide(*stacks)):
            outcomes[i] = outcome
        del stacks
    return outcomes


def _is_psd(outcomes: list) -> list:
    """Each verdict of a stacked call as its is_psd; errors stay as they are,
    to be raised in trial order."""
    return [v if isinstance(v, PerispecError) else v.is_psd for v in outcomes]


def _halves(matrix: np.ndarray) -> Block2Matrix:
    n = matrix.shape[-1] // 2
    return Block2Matrix(
        matrix[..., :n, :n], matrix[..., :n, n:], matrix[..., n:, :n], matrix[..., n:, n:]
    )


def _gram(g: np.ndarray) -> np.ndarray:
    """g g* for each matrix of a stack."""
    return g @ g.conj().swapaxes(-1, -2)


def _diagonals(*parts: np.ndarray) -> np.ndarray:
    """The (len(parts), k, n, n) stack of diagonal matrices whose diagonals
    are the rows of the (k, n) parts."""
    parts = np.stack(parts)
    out = np.zeros(parts.shape + parts.shape[-1:], dtype=np.complex128)
    i = np.arange(parts.shape[-1])
    out[..., i, i] = parts
    return out


def criterion_06(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Criterion/oracle agreement on seeded block matrices."""
    crit_tol = Tolerances(eq_tol=1e-9, rank_tol=1e-8, psd_tol=1e-8)
    rng = _rng(seed, 6)
    trials = []
    for trial in range(1000):
        n = int(rng.integers(1, 4))
        # g as drawn: its real parts, then its imaginary parts
        trials.append((rng.standard_normal((2, 2 * n, 2 * n)), trial % 2 == 1))

    def schur(g, shifted):
        """The three verdicts on g g*, which a shifted trial moves down until
        its least eigenvalue is -0.1 max(1, its largest)."""
        matrix = _gram(_complex(g.swapaxes(0, 1)))
        w = np.linalg.eigvalsh(matrix[shifted])
        shift = w[:, 0] + 0.1 * np.maximum(1.0, w[:, -1])
        matrix[shifted] -= shift[:, None, None] * np.eye(matrix.shape[-1])
        m = _halves(matrix)
        # _by_side still holds the draws: free the matrices before the criteria
        # build their own stacks, which set this side's peak memory
        oracle = _is_psd(oracle_psd_stack(matrix, crit_tol))
        del matrix
        return zip(
            oracle,
            _is_psd(criterion_epsilon_stack(m, tol=crit_tol)),
            _is_psd(criterion_epsilon_prime_stack(m, tol=crit_tol)),
        )

    verdicts = _by_side(trials, schur)
    disagreements = 0
    for reference, *criteria in verdicts:
        reference = _raised(reference)
        disagreements += sum(_raised(v) != reference for v in criteria)
    trials = []
    for trial in range(500):
        n = int(rng.integers(1, 5))
        a = 0.1 + np.abs(_random_complex(rng, n)) ** 2
        d = 0.1 + np.abs(_random_complex(rng, n)) ** 2
        # keep |b|^2 / (a d) away from 1 so verdicts are never borderline
        ratio = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 0.9, n),
                         rng.uniform(1.1, 1.5, n))
        phases = np.exp(2j * np.pi * rng.random(n))
        trials.append((a, phases * np.sqrt(ratio * a * d), d))

    def commuting(a, b, d):
        m = Block2Matrix(*_diagonals(a, b, b.conj(), d))
        return zip(
            _is_psd(oracle_psd_stack(assemble(m), crit_tol)),
            _is_psd(criterion_commuting_stack(m, crit_tol)),
        )

    verdicts = _by_side(trials, commuting)
    commuting_disagreements = sum(_raised(ref) != _raised(v) for ref, v in verdicts)
    passed = disagreements == 0 and commuting_disagreements == 0
    return CriterionResult(
        "c06",
        "Schur criteria agree with the eigenvalue oracle on 1000 seeded "
        "instances, commuting criterion on 500 diagonal ones",
        passed,
        {
            "schur_disagreements": disagreements,
            "commuting_disagreements": commuting_disagreements,
        },
    )


def criterion_07(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Positivity-preserving transformations keep seeded PSD inputs PSD."""
    rng = _rng(seed, 7)
    trials = []
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        # each factor as drawn: its real parts, then its imaginary parts
        g = rng.standard_normal((2, 2 * n, 2 * n))
        x = rng.standard_normal((2, n, n))
        y = rng.standard_normal((2, n, n))
        trials.append((g, x, y))

    def least(g, x, y):
        m = _halves(_gram(_complex(g.swapaxes(0, 1))))
        corner = np.linalg.eigvalsh(assemble(corner_swap(m)))
        squeezed = assemble(congruence(m, _complex(x.swapaxes(0, 1)), _complex(y.swapaxes(0, 1))))
        squeezed = np.linalg.eigvalsh(0.5 * (squeezed + squeezed.conj().swapaxes(-1, -2)))
        return zip(corner[:, 0], squeezed[:, 0])

    corner, squeezed = zip(*_by_side(trials, least))
    worst = {"corner": min(corner), "congruence": min(squeezed)}
    trials = []
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        g = rng.standard_normal((2, n, n))
        p = rng.uniform(0.1, 2.0, n)
        q = rng.uniform(0.1, 2.0, n)
        z = (
            np.exp(2j * np.pi * rng.random(n))
            * np.sqrt(p * q)
            * rng.uniform(0.0, 0.9, n)
        )
        trials.append((g, p, z, q))

    def swapped_least(g, p, z, q):
        """Per trial, the least eigenvalue of the swapped matrix, or the error;
        the blocks are v diag v* with v the unitary factor of g."""
        v, _ = np.linalg.qr(_complex(g.swapaxes(0, 1)))
        # the products are freed once the Block2Matrix has copied them
        m = Block2Matrix(*(v @ _diagonals(p, z, z.conj(), q) @ v.conj().swapaxes(-1, -2)))
        outcomes = offdiag_swap_stack(m, tol)
        done = [i for i, s in enumerate(outcomes) if not isinstance(s, PerispecError)]
        if done:
            swapped = Block2Matrix(*(
                np.stack([getattr(outcomes[i], block) for i in done]) for block in "abcd"
            ))
            for i, w in zip(done, np.linalg.eigvalsh(assemble(swapped))[:, 0]):
                outcomes[i] = w
        return outcomes

    worst["offdiag"] = min(map(_raised, _by_side(trials, swapped_least)))
    passed = all(v >= -1e-9 for v in worst.values())
    return CriterionResult(
        "c07",
        "corner swap, congruence, and hypothesis-guarded off-diagonal swap "
        "preserve positivity on 1000 seeded instances each",
        passed,
        {k: float(v) for k, v in worst.items()},
    )


def criterion_08(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Eigenspaces closed under the adjoint and the symmetrized product."""
    cases = [
        build_example1(GENERIC_LAMBDA)[0],
        build_example1(-1.0 + 0.0j)[0],
        build_example2(GENERIC_LAMBDA)[0],
        build_example2(1j)[0],
    ]
    worst_star = worst_jordan = 0.0
    for phi in cases:
        spectrum = point_spectrum(phi, tol)
        worst_star = max(
            worst_star, star_closure_check(phi, spectrum).max_residual
        )
        worst_jordan = max(
            worst_jordan, jordan_closure_check(phi, spectrum, tol).max_residual
        )
    passed = worst_star <= 1e-9 and worst_jordan <= 1e-9
    return CriterionResult(
        "c08",
        "star and symmetrized-product closure of eigenspaces on both families",
        passed,
        {"star_max_residual": worst_star, "jordan_max_residual": worst_jordan},
    )


def criterion_09(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Continuous families: semigroup law, eigenvector winding, agreement
    with the single maps at t = 1."""
    from .analysis import _continuous_entry

    lam = GENERIC_LAMBDA
    configs = [
        (build_example1_continuous(lam), *build_example1(lam)),
        (build_example2_continuous(lam), *build_example2(lam)),
    ]
    worst_law = worst_eigen = worst_t1 = 0.0
    for family, phi, manifest in configs:
        entry = _continuous_entry(family, manifest, 1.0, seed, tol)
        worst_law = max(worst_law, entry["semigroup_max_residual"])
        worst_eigen = max(
            [worst_eigen] + [check["max_residual"] for check in entry["eigen_checks"]]
        )
        worst_t1 = max(worst_t1, max_norm(family.builder(1.0).matrix - phi.matrix))
    passed = worst_law <= 1e-10 and worst_eigen <= 1e-10 and worst_t1 <= 1e-12
    return CriterionResult(
        "c09",
        "semigroup law, eigenvector winding on a sampled t grid, and exact "
        "t = 1 snapshots for both continuous families",
        passed,
        {
            "semigroup_max_residual": worst_law,
            "eigen_max_residual": worst_eigen,
            "t1_max_residual": worst_t1,
            "pairs": entry["semigroup_pairs"],
            "t_grid": len(entry["eigen_check_times"]),
        },
    )


def criterion_10(seed: int, samples: int, tol: Tolerances) -> CriterionResult:
    """Classification round trips, and byte-identical CLI reports."""
    from . import cli

    worst_roundtrip = 0.0
    failures = []
    regimes = [
        ("ex1-generic",) + build_example1(GENERIC_LAMBDA),
        ("ex1-merged",) + build_example1(-1.0 + 0.0j),
        ("ex2-generic", *build_example2(GENERIC_LAMBDA)),
        ("ex2-merged", *build_example2(1j)),
    ]
    for name, phi, manifest in regimes:
        spectrum = point_spectrum(phi, tol)
        candidates = []
        for value, basis in zip(
            manifest.expected_spectrum, manifest.canonical_eigenvectors
        ):
            candidates.extend((value, x) for x in basis)
        for point in spectrum.points:
            candidates.extend((point.value, x) for x in point.basis)
        for value, x in candidates:
            try:
                rebuilt = reconstruct(classify_eigenvector(phi, value, x, tol))
                residual = element_norm(
                    rebuilt - normalize_eigenvector(phi, value, x, tol)
                )
                worst_roundtrip = max(worst_roundtrip, residual)
            except PerispecError as exc:
                failures.append(f"{name} at {value:.4g}: {type(exc).__name__}")
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        runs = [
            (
                "ex1.json",
                {"map": {"preset": {"name": "ex1",
                                    "lambda0": [GENERIC_LAMBDA.real,
                                                GENERIC_LAMBDA.imag]}}},
                ["analyze"],
            ),
            (
                "ex2c.json",
                {"map": {"preset": {"name": "ex2c", "lambda0": [0.0, 1.0]}}},
                ["analyze"],
            ),
        ]
        from .mapfile import dump_json

        for filename, document, command in runs:
            mappath = tmpdir / filename
            mappath.write_text(dump_json(document), encoding="utf-8")
            outputs = []
            for attempt in range(2):
                outpath = tmpdir / f"{filename}.{attempt}.report"
                code = cli.main(
                    command
                    + [
                        str(mappath),
                        "--seed",
                        str(seed),
                        "--samples",
                        str(min(samples, 2000)),
                        "--out",
                        str(outpath),
                    ]
                )
                if code != 0:
                    identical = False
                    failures.append(f"cli exit {code} on {filename}")
                    break
                outputs.append(outpath.read_bytes())
            if len(outputs) == 2 and outputs[0] != outputs[1]:
                identical = False
                failures.append(f"reports differ on {filename}")
    passed = worst_roundtrip <= 1e-9 and not failures and identical
    return CriterionResult(
        "c10",
        "classification round trips on every example eigenvector; CLI reports "
        "are byte-identical across runs",
        passed,
        {
            "max_roundtrip_residual": worst_roundtrip,
            "failures": failures,
            "reports_identical": identical,
        },
    )


CRITERIA: tuple[tuple[str, Callable[[int, int, Tolerances], CriterionResult]], ...] = (
    ("c01", criterion_01),
    ("c02", criterion_02),
    ("c03", criterion_03),
    ("c04", criterion_04),
    ("c05", criterion_05),
    ("c06", criterion_06),
    ("c07", criterion_07),
    ("c08", criterion_08),
    ("c09", criterion_09),
    ("c10", criterion_10),
)


def run_all(
    seed: int = 42, samples: int = 10000, tol: Tolerances = DEFAULT_TOL
) -> list[CriterionResult]:
    results = []
    for cid, func in CRITERIA:
        try:
            results.append(func(seed, samples, tol))
        except Exception as exc:  # a crashed criterion is a failed criterion
            results.append(
                CriterionResult(
                    cid,
                    func.__doc__.splitlines()[0] if func.__doc__ else cid,
                    False,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            )
    return results
