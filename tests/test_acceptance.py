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
