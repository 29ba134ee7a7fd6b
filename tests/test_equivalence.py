import importlib.util
from pathlib import Path

import numpy as np
import pytest

from graphtransducer import CTC_LIKE, MONO_RNNT, PosteriorTensor, TopologySpec, build_lattice, loss_and_grad

TOOL = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
spec = importlib.util.spec_from_file_location("equivalence", TOOL)
equivalence = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equivalence)


def fixture_groups():
    """Two small groups of what the tool hashes: losses, gradients, lse
    and an integer prefix."""
    rng = np.random.default_rng(36)
    groups = {}
    for kind in (CTC_LIKE, MONO_RNNT):
        lat = build_lattice(TopologySpec(kind, (1, 2), 4))
        post = PosteriorTensor(rng.normal(0, 1, (6, lat.num_states, 4)))
        result = loss_and_grad(lat, post)
        groups[kind] = [result.loss, result.grad, post.lse, [1, 2]]
    return groups


def digests(groups):
    return {name: equivalence.digest(values) for name, values in groups.items()}


def test_the_digest_is_stable():
    assert digests(fixture_groups()) == digests(fixture_groups())
    for name in ("batch_loss_and_grad", "train_step"):
        group = equivalence.GROUPS[name]
        assert equivalence.digest(group()) == equivalence.digest(group())


def test_a_one_ulp_change_flips_only_its_own_groups_hash():
    want = digests(fixture_groups())
    for name in want:
        for j in range(3):
            groups = fixture_groups()
            value = np.array(groups[name][j])
            value.flat[0] = np.nextafter(value.flat[0], np.inf)
            groups[name][j] = value if value.ndim else float(value)
            got = digests(groups)
            assert got[name] != want[name]
            assert all(got[other] == want[other] for other in want if other != name)


def test_a_value_that_is_not_numeric_is_refused():
    # an object array's bytes are pointers, which no two runs share
    with pytest.raises(TypeError, match="NoneType"):
        equivalence.digest([1.0, None])
