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


def _criterion_07_details_reference(seed: int, tol) -> dict:
    """c07 as it was with one QR per trial: each off-diagonal-swap trial's
    blocks v diag v* are formed as the trial is drawn."""
    from perispec import Block2Matrix, PerispecError, assemble, congruence, corner_swap
    from perispec.positivity import offdiag_swap_stack
    from perispec.suite import _by_side, _halves, _random_complex, _rng

    def decided(outcome):
        if isinstance(outcome, PerispecError):
            raise outcome
        return outcome

    rng = _rng(seed, 7)
    trials = []
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        g = _random_complex(rng, 2 * n, 2 * n)
        x = _random_complex(rng, n, n)
        y = _random_complex(rng, n, n)
        trials.append((g @ g.conj().T, x, y))

    def least(matrix, x, y):
        m = _halves(matrix)
        corner = np.linalg.eigvalsh(assemble(corner_swap(m)))
        squeezed = assemble(congruence(m, x, y))
        squeezed = np.linalg.eigvalsh(0.5 * (squeezed + squeezed.conj().swapaxes(-1, -2)))
        return zip(corner[:, 0], squeezed[:, 0])

    corner, squeezed = zip(*_by_side(trials, least))
    worst = {"corner": min(corner), "congruence": min(squeezed)}
    trials = []
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        v, _ = np.linalg.qr(_random_complex(rng, n, n))
        p = rng.uniform(0.1, 2.0, n)
        q = rng.uniform(0.1, 2.0, n)
        z = (
            np.exp(2j * np.pi * rng.random(n))
            * np.sqrt(p * q)
            * rng.uniform(0.0, 0.9, n)
        )
        trials.append((np.stack([v @ np.diag(part) @ v.conj().T for part in (p, z, z.conj(), q)]),))

    def swapped_least(blocks):
        outcomes = offdiag_swap_stack(Block2Matrix(*blocks.swapaxes(0, 1)), tol)
        done = [i for i, s in enumerate(outcomes) if not isinstance(s, PerispecError)]
        if done:
            least = np.linalg.eigvalsh(np.stack([assemble(outcomes[i]) for i in done]))
            for i, w in zip(done, least[:, 0]):
                outcomes[i] = w
        return outcomes

    worst["offdiag"] = min(map(decided, _by_side(trials, swapped_least)))
    return {k: float(v) for k, v in worst.items()}


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_criterion_07_factors_each_side_at_once_with_the_same_details(seed):
    result = _BY_ID["c07"](seed, SAMPLES, DEFAULT_TOL)
    assert result.details == _criterion_07_details_reference(seed, DEFAULT_TOL)
