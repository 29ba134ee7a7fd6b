import importlib.util
from pathlib import Path

import numpy as np

from graphtransducer.oracle import decimal_softmax

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ulp_error.py"
spec = importlib.util.spec_from_file_location("ulp_error", TOOL)
ulp_error = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ulp_error)


def test_the_new_form_is_exact_on_rows_of_equal_logits():
    # four equal logits: exp(0) / 4 is exactly 0.25, while exp(h - lse)
    # carries the rounding of lse = h + log 4
    lines = ulp_error.report(np.array([[0.0] * 4, [3.5] * 4]))
    assert lines[0].startswith("exp(h - lse): rows 2 mean ")
    assert lines[1] == "exp(h - peak) / total: rows 2 mean 0.00 ulp max 0.00 ulp"


def test_reports_each_forms_error_on_a_tiny_fixture():
    rows = np.array([[0.0, 1.0, 2.0], [-5.0, 0.5, 20.0]])
    forms = ulp_error.softmax_forms(rows)
    assert list(forms) == ["exp(h - lse)", "exp(h - peak) / total"]
    for probs in forms.values():
        assert probs.shape == rows.shape and np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    lines = ulp_error.report(rows)
    assert [line.split(":")[0] for line in lines] == list(forms)
    for line in lines:
        words = line.split(": ")[1].split()
        assert words[:3] + words[4:6] + words[7:] == ["rows", "2", "mean", "ulp", "max", "ulp"]
        mean, worst = float(words[3]), float(words[6])
        assert 0.0 <= mean <= worst < 64.0


def test_the_gradients_softmax_is_no_less_accurate_than_exp_of_h_minus_lse():
    # the loss forms p as exp(h - peak) / total; before, it formed
    # exp(h - lse), which also carries the rounding of lse and of h - lse
    for scale in (1.0, 10.0):
        rows = np.random.default_rng(int(scale)).normal(0.0, scale, (16, 100))
        exact = decimal_softmax(rows)
        old, new = (ulp_error.ulp_error(probs, exact) for probs in ulp_error.softmax_forms(rows).values())
        assert new.mean() <= old.mean() and new.max() <= old.max()
