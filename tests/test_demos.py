"""Every demo script runs to completion on its own, and prints what the
public-output corpus lists for it."""

import pytest

from public_outputs import DEMOS, demo_name, recorded, run_demo


def test_demos_exist():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    digest, code, err = run_demo(demo)
    assert code == 0, err
    assert "Traceback" not in err
    assert (digest, code) == recorded()[demo_name(demo)]
