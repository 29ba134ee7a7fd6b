"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Every criterion is seeded and its report text contains no timing, so
criterion 9 can demand byte-identical reports across a full rerun; wall
times are asserted separately and printed to stderr.
"""

import functools
import sys
import time

from graphtransducer import TOPOLOGIES, ToyModel, make_synthetic_task, train_step
from graphtransducer.decode import ModelPosteriors, greedy_search
from graphtransducer.verify import (
    CheckResult,
    check_beam_exactness,
    check_ctc_reduction,
    check_gradients,
    check_marginal_oracle,
    check_monornnt_reduction,
    check_t_invariance,
)

TIME_BOUNDS = {1: 30.0, 2: 120.0, 7: 60.0, 8: 120.0}


def _criterion_8() -> CheckResult:
    lines = []
    all_ok = True
    for kind in TOPOLOGIES:
        data = make_synthetic_task(7, 20, 6, 5)
        model = ToyModel(6, 32, 6, lr=0.3, seed=7)
        losses = [train_step(model, data, kind) for _ in range(500)]
        hits = sum(
            greedy_search(ModelPosteriors(model, utt.features), kind) == utt.labels
            for utt in data
        )
        ratio = losses[-1] / losses[0]
        ok = ratio <= 0.10 and hits >= 0.95 * len(data)
        all_ok = all_ok and ok
        lines.append(
            f"learning-sanity[{kind}]: {'PASS' if ok else 'FAIL'} steps=500 utts=20 vocab=6 "
            f"initial_loss={losses[0]:.6f} final_loss={losses[-1]:.6f} ratio={ratio:.6f} "
            f"exact_match={hits}/20 seed=7"
        )
    return CheckResult("learning-sanity", all_ok, "\n".join(lines))


CRITERIA = {
    1: lambda: check_marginal_oracle(101, 200, max_t=5, max_u=3, vocab=4)[0],
    2: lambda: check_gradients(102, 200, max_t=4, max_u=2, vocab=3),
    3: lambda: check_t_invariance(103, 32, max_t=32, max_u=3, vocab=4),
    4: lambda: check_ctc_reduction(104, 100, max_t=5, max_u=3, vocab=4),
    5: lambda: check_monornnt_reduction(105, 100, max_t=5, max_u=3, vocab=4),
    6: lambda: check_marginal_oracle(106, 200, max_t=5, max_u=3, vocab=4)[1],
    7: lambda: check_beam_exactness(107, 50, max_t=4, vocab=3),
    8: _criterion_8,
}


def _run(n: int) -> tuple[CheckResult, float]:
    start = time.perf_counter()
    result = CRITERIA[n]()
    return result, time.perf_counter() - start


@functools.lru_cache(maxsize=None)
def _first_run(n: int) -> tuple[CheckResult, float]:
    return _run(n)


def _report(n: int) -> CheckResult:
    result, seconds = _first_run(n)
    for line in result.text.splitlines():
        print(f"[criterion {n}] {line}")
    print(f"[criterion {n}] elapsed {seconds:.2f}s", file=sys.stderr)
    return result


def test_criterion_1_oracle_equivalence():
    result = _report(1)
    assert result.passed, result.text
    assert _first_run(1)[1] < TIME_BOUNDS[1]


def test_criterion_2_gradient_correctness():
    result = _report(2)
    assert result.passed, result.text
    assert _first_run(2)[1] < TIME_BOUNDS[2]


def test_criterion_3_frame_invariance():
    result = _report(3)
    assert result.passed, result.text


def test_criterion_4_ctc_reduction():
    result = _report(4)
    assert result.passed, result.text


def test_criterion_5_monornnt_reduction():
    result = _report(5)
    assert result.passed, result.text


def test_criterion_6_normalization_bound():
    result = _report(6)
    assert result.passed, result.text


def test_criterion_7_beam_search_exactness():
    result = _report(7)
    assert result.passed, result.text
    assert _first_run(7)[1] < TIME_BOUNDS[7]


def test_criterion_8_learning_sanity():
    result = _report(8)
    assert result.passed, result.text
    assert _first_run(8)[1] < TIME_BOUNDS[8]


def test_criterion_9_reports_are_deterministic():
    baseline = [_first_run(n)[0].text for n in sorted(CRITERIA)]
    rerun = [_run(n)[0].text for n in sorted(CRITERIA)]
    ok = baseline == rerun
    print(f"[criterion 9] determinism: {'PASS' if ok else 'FAIL'} reran=8 byte_identical={ok}")
    assert ok
