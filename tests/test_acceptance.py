"""Acceptance criteria, one test per criterion.

Each test runs the corresponding suite criterion at the standard seed and
sample count, prints its pass/fail line, and asserts the verdict. Failures
surface the recorded details for diagnosis.
"""

import json

import numpy as np
import pytest

from perispec.algebra import DEFAULT_TOL
from perispec.suite import CRITERIA

SEED = 42
SAMPLES = 10000

_BY_ID = dict(CRITERIA)


@pytest.mark.parametrize("cid", [cid for cid, _ in CRITERIA])
def test_acceptance_criterion(cid):
    result = _BY_ID[cid](SEED, SAMPLES, DEFAULT_TOL)
    print(f"[{result.cid}] {'PASS' if result.passed else 'FAIL'} {result.title}")
    assert result.passed, json.dumps(result.details, default=str, indent=2)


def test_trials_are_decided_once_per_side_and_read_back_in_trial_order():
    from perispec.suite import _by_side

    sides = np.random.default_rng(0).integers(1, 4, 50)
    trials = [(np.full((n, n), i), np.full(n, -i)) for i, n in enumerate(sides)]
    shapes = []

    def decide(first, second):
        shapes.append(first.shape[1:])
        return [(int(f[0, 0]), int(-s[0])) for f, s in zip(first, second)]

    assert _by_side(trials, decide) == [(i, i) for i in range(50)]
    # one stacked call per side, smallest first, each trial freed once stacked
    assert shapes == [(1, 1), (2, 2), (3, 3)]
    assert trials == [None] * 50


def _two_call_complex(rng, *shape):
    """Complex normal draws as the suite drew them before one call drew both
    parts: the real parts, then the imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _per_side(items):
    """Per side, smallest first, the stack of the items of that side in trial
    order, as the suite groups its trials."""
    sides = sorted({item.shape[-1] for item in items})
    return [np.stack([item for item in items if item.shape[-1] == side]) for side in sides]


def _reference_halves(matrix):
    from perispec import Block2Matrix

    n = matrix.shape[-1] // 2
    return Block2Matrix(
        matrix[..., :n, :n], matrix[..., :n, n:], matrix[..., n:, :n], matrix[..., n:, n:]
    )


def _assert_same_bits(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.shape == e.shape and a.dtype == e.dtype == np.complex128
        assert np.array_equal(
            np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(e).view(np.uint64)
        )


def _decided(outcome):
    from perispec import PerispecError

    if isinstance(outcome, PerispecError):
        raise outcome
    return outcome


@pytest.mark.parametrize("size", [(1,), (4,), (2, 2), (3, 3), (6, 6)])
def test_one_draw_of_both_parts_equals_two_draws_bit_for_bit(size):
    one, two = (np.random.default_rng([7, 6]) for _ in range(2))
    real, imag = one.standard_normal((2, *size))
    assert np.array_equal(real.view(np.uint64), two.standard_normal(size).view(np.uint64))
    assert np.array_equal(imag.view(np.uint64), two.standard_normal(size).view(np.uint64))
    # the generator is left in the same state, so every later draw agrees
    assert one.bit_generator.state == two.bit_generator.state


def _criterion_06_reference(seed: int) -> tuple[dict, list, list]:
    """c06 as it was with every trial's matrix built as the trial is drawn:
    its details, the shifted Schur matrices per side, and the commuting
    trials' assembled blocks per side."""
    from perispec import Block2Matrix, Tolerances, assemble
    from perispec.positivity import (
        criterion_commuting_stack,
        criterion_epsilon_prime_stack,
        criterion_epsilon_stack,
        oracle_psd_stack,
    )

    crit_tol = Tolerances(eq_tol=1e-9, rank_tol=1e-8, psd_tol=1e-8)
    rng = np.random.default_rng([seed, 6])
    matrices = []
    for trial in range(1000):
        n = int(rng.integers(1, 4))
        g = _two_call_complex(rng, 2 * n, 2 * n)
        matrix = g @ g.conj().T
        if trial % 2 == 1:
            w = np.linalg.eigvalsh(matrix)
            shift = float(w[0]) + 0.1 * max(1.0, float(w[-1]))
            matrix = matrix - shift * np.eye(2 * n)
        matrices.append(matrix)
    schur = _per_side(matrices)
    disagreements = 0
    for matrix in schur:
        m = _reference_halves(matrix)
        for reference, *criteria in zip(
            oracle_psd_stack(matrix, crit_tol),
            criterion_epsilon_stack(m, tol=crit_tol),
            criterion_epsilon_prime_stack(m, tol=crit_tol),
        ):
            reference = _decided(reference).is_psd
            disagreements += sum(_decided(v).is_psd != reference for v in criteria)
    blocks = []
    for _ in range(500):
        n = int(rng.integers(1, 5))
        a = 0.1 + np.abs(_two_call_complex(rng, n)) ** 2
        d = 0.1 + np.abs(_two_call_complex(rng, n)) ** 2
        ratio = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 0.9, n),
                         rng.uniform(1.1, 1.5, n))
        phases = np.exp(2j * np.pi * rng.random(n))
        b = phases * np.sqrt(ratio * a * d)
        blocks.append(np.stack([np.diag(a), np.diag(b), np.diag(b.conj()), np.diag(d)]))
    commuting = []
    commuting_disagreements = 0
    for side in _per_side(blocks):
        m = Block2Matrix(*side.swapaxes(0, 1))
        commuting.append(assemble(m))
        commuting_disagreements += sum(
            _decided(ref).is_psd != _decided(v).is_psd
            for ref, v in zip(oracle_psd_stack(commuting[-1], crit_tol),
                              criterion_commuting_stack(m, crit_tol))
        )
    details = {
        "schur_disagreements": disagreements,
        "commuting_disagreements": commuting_disagreements,
    }
    return details, schur, commuting


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_criterion_06_builds_each_side_as_the_per_trial_loops_did(seed, monkeypatch):
    import perispec.suite as suite

    decided = []
    oracle = suite.oracle_psd_stack

    def recording(matrix, tol):
        decided.append(matrix)
        return oracle(matrix, tol)

    monkeypatch.setattr(suite, "oracle_psd_stack", recording)
    result = _BY_ID["c06"](seed, SAMPLES, DEFAULT_TOL)
    details, schur, commuting = _criterion_06_reference(seed)
    assert result.details == details
    # the oracle sees each side's Schur matrices, then each side's commuting ones
    _assert_same_bits(decided, schur + commuting)


def _criterion_07_reference(seed: int, tol) -> tuple[dict, list, list]:
    """c07 as it was with one QR per trial: each off-diagonal-swap trial's
    blocks v diag v* are formed as the trial is drawn. Returns its details,
    the matrices it assembles per side (corner swap and congruence of each
    side, then each side's swapped matrices, read back one row at a time),
    and per side the assembled input of the off-diagonal swap."""
    from perispec import Block2Matrix, assemble, congruence, corner_swap
    from perispec.positivity import offdiag_swap_stack

    rng = np.random.default_rng([seed, 7])
    trials = []
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        g = _two_call_complex(rng, 2 * n, 2 * n)
        x = _two_call_complex(rng, n, n)
        y = _two_call_complex(rng, n, n)
        trials.append((g @ g.conj().T, x, y))
    assembled = []
    corner, squeezed = [], []
    for matrix, x, y in zip(*(_per_side(field) for field in zip(*trials))):
        m = _reference_halves(matrix)
        assembled += [assemble(corner_swap(m)), assemble(congruence(m, x, y))]
        corner.extend(np.linalg.eigvalsh(assembled[-2])[:, 0])
        both = assembled[-1]
        squeezed.extend(np.linalg.eigvalsh(0.5 * (both + both.conj().swapaxes(-1, -2)))[:, 0])
    worst = {"corner": min(corner), "congruence": min(squeezed)}
    blocks = []
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        v, _ = np.linalg.qr(_two_call_complex(rng, n, n))
        p = rng.uniform(0.1, 2.0, n)
        q = rng.uniform(0.1, 2.0, n)
        z = (
            np.exp(2j * np.pi * rng.random(n))
            * np.sqrt(p * q)
            * rng.uniform(0.0, 0.9, n)
        )
        blocks.append(np.stack([v @ np.diag(part) @ v.conj().T for part in (p, z, z.conj(), q)]))
    swap_inputs = []
    offdiag = []
    for side in _per_side(blocks):
        m = Block2Matrix(*side.swapaxes(0, 1))
        swap_inputs.append(assemble(m))
        swapped = np.stack([assemble(_decided(o)) for o in offdiag_swap_stack(m, tol)])
        assembled.append(swapped)
        offdiag.extend(np.linalg.eigvalsh(swapped)[:, 0])
    worst["offdiag"] = min(offdiag)
    return {k: float(v) for k, v in worst.items()}, assembled, swap_inputs


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_criterion_07_factors_each_side_at_once_with_the_same_details(seed, monkeypatch):
    import perispec.suite as suite

    assembled, swap_inputs = [], []
    assemble, offdiag_swap_stack = suite.assemble, suite.offdiag_swap_stack

    def recording_assemble(m):
        assembled.append(assemble(m))
        return assembled[-1]

    def recording_swap(m, tol):
        swap_inputs.append(assemble(m))
        return offdiag_swap_stack(m, tol)

    monkeypatch.setattr(suite, "assemble", recording_assemble)
    monkeypatch.setattr(suite, "offdiag_swap_stack", recording_swap)
    result = _BY_ID["c07"](seed, SAMPLES, DEFAULT_TOL)
    details, reference_assembled, reference_inputs = _criterion_07_reference(seed, DEFAULT_TOL)
    assert result.details == details
    _assert_same_bits(assembled, reference_assembled)
    _assert_same_bits(swap_inputs, reference_inputs)


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_criterion_09_reads_the_continuous_sections_that_analyze_reports(seed):
    from perispec import load_map_file
    from perispec.analysis import analyze
    from perispec.suite import GENERIC_LAMBDA

    laws, eigens = [], []
    for name in ("ex1c", "ex2c"):
        lambda0 = [GENERIC_LAMBDA.real, GENERIC_LAMBDA.imag]
        loaded = load_map_file({"map": {"preset": {"name": name, "lambda0": lambda0}}})
        assert loaded.t == 1.0
        report = analyze(
            loaded.phi, DEFAULT_TOL, seed=seed, samples=100,
            family=loaded.family, manifest=loaded.manifest, t=loaded.t,
        )
        continuous = report["continuous"]
        laws.append(continuous["semigroup_max_residual"])
        eigens.extend(check["max_residual"] for check in continuous["eigen_checks"])
    details = _BY_ID["c09"](seed, SAMPLES, DEFAULT_TOL).details
    assert details["semigroup_max_residual"] == max(laws)
    assert details["eigen_max_residual"] == max(eigens)
    assert details["pairs"] == 20
    assert details["t_grid"] == 10
