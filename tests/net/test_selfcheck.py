"""``python -m repro.net.selfcheck``: the cluster-smoke gate refuses to
pass on nothing."""

import pytest

from repro.net.selfcheck import check_determinism, main


@pytest.mark.parametrize(
    "argv", [["--ranks", "0"], ["--ranks", "-4"], ["--rounds", "0"]]
)
def test_count_below_one_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("ranks, rounds", [(1, 3), (4, 0)])
def test_determinism_fails_when_nothing_was_delivered(ranks, rounds):
    ok, detail = check_determinism(ranks, rounds)
    assert not ok
    assert "no message delivered" in detail


def test_determinism_passes_on_a_run_that_delivered():
    ok, detail = check_determinism(4, 1)
    assert ok, detail
