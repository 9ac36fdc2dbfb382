import pytest

from arbozeta.errors import DomainError
from arbozeta.suites import SUITES, run_suite

REPORT_KEYS = {"suite", "instance", "lhs", "rhs", "residual", "tolerance", "pass"}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_at_reduced_bound(name):
    entries = run_suite(name, 4, 1e-7)
    assert entries, f"suite {name} produced no entries"
    for entry in entries:
        assert set(entry) == REPORT_KEYS
        assert isinstance(entry["pass"], bool)
    bad = [e for e in entries if not e["pass"]]
    assert not bad, f"{len(bad)} failed; first: {bad[0]['instance']}"


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


@pytest.mark.parametrize("bound", [-5, 0])
def test_bad_weight_bound_rejected(bound):
    with pytest.raises(DomainError):
        run_suite("mzv-oracles", bound)
    with pytest.raises(DomainError):
        run_suite("all", bound)


def test_all_runs_every_suite():
    entries = run_suite("all", 3, 1e-6)
    assert {e["suite"] for e in entries} == set(SUITES)
