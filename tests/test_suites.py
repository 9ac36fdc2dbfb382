import math
import os
import time
from fractions import Fraction

import pytest

from arbozeta.errors import DomainError, PrecisionUnreachable
from arbozeta import cli, suites, syntax
from arbozeta.suites import (
    SUITES,
    _certified,
    _companion,
    _exact,
    _family,
    _pairs,
    _product,
    _tally,
    _unnormalized_associator,
    _with_lambda,
    run_suite,
)
from arbozeta.lincomb import LinComb
from arbozeta.trees import Forest
from arbozeta.words import Word
from arbozeta.zeta import MzvEval

REPORT_KEYS = {"suite", "instance", "lhs", "rhs", "residual", "tolerance", "pass"}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_at_reduced_bound(name):
    entries = run_suite(name, 4, 1e-7)
    assert entries, f"suite {name} produced no entries"
    for entry in entries:
        assert set(entry) == REPORT_KEYS
        assert next(iter(entry)) == "suite" and entry["suite"] == name
        assert isinstance(entry["pass"], bool)
    bad = [e for e in entries if not e["pass"]]
    assert not bad, f"{len(bad)} failed; first: {bad[0]['instance']}"


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


@pytest.mark.parametrize("bound", [-5, 0, suites.MAX_WEIGHT_BOUND + 1])
def test_bad_weight_bound_rejected(bound):
    with pytest.raises(DomainError):
        run_suite("mzv-oracles", bound)
    with pytest.raises(DomainError):
        run_suite("all", bound)


def test_weight_bound_help_states_the_maximum(capsys):
    with pytest.raises(SystemExit):
        cli.main(["check", "--help"])
    assert f"1 to {suites.MAX_WEIGHT_BOUND}" in " ".join(capsys.readouterr().out.split())


def test_all_runs_every_suite(monkeypatch):
    """``all`` is every suite in ``SUITES`` order, on the default worker
    count, in process (one CPU) and in two workers."""
    serial = [entry for name in SUITES for entry in run_suite(name, 3, 1e-6)]
    assert {e["suite"] for e in serial} == set(SUITES)
    assert run_suite("all", 3, 1e-6) == serial
    for cpus in (1, 2):
        monkeypatch.setattr(suites, "_cpu_count", lambda: cpus)
        assert run_suite("all", 3, 1e-6) == serial


@pytest.mark.parametrize("cpus", [1, 2])
def test_all_names_every_entry_first_by_its_suite_key(monkeypatch, cpus):
    """Suites yield bare entries; ``run_suite`` puts ``suite`` first, in process and in workers."""

    def bare(name):
        return lambda bound, precision: iter([{"instance": f"{name} {i}", "pass": True} for i in range(2)])

    monkeypatch.setattr(suites, "_cpu_count", lambda: cpus)
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, bare(name))
    report = run_suite("all", 3, 1e-6)
    assert [list(entry) for entry in report] == [["suite", "instance", "pass"]] * (2 * len(SUITES))
    assert [(e["suite"], e["instance"]) for e in report] == [(n, f"{n} {i}") for n in SUITES for i in range(2)]


def _break_a_suite(monkeypatch, cpus):
    """Make one suite raise; the message says whether it ran in a worker.

    Forked workers inherit the patched ``SUITES`` entry.  Returns the message
    expected from ``run_suite("all", 3, ...)``.
    """
    caller = os.getpid()

    def broken(bound, precision):
        where = "caller" if os.getpid() == caller else "worker"
        raise DomainError(f"broken suite at bound {bound}, in the {where}")

    monkeypatch.setattr(suites, "_cpu_count", lambda: cpus)
    monkeypatch.setitem(SUITES, "theorem5", broken)
    where = "worker" if cpus > 1 and hasattr(os, "fork") else "caller"
    return f"broken suite at bound 3, in the {where}"


@pytest.mark.parametrize("cpus", [1, 2])
def test_all_raises_a_suite_error_in_the_caller(monkeypatch, cpus):
    message = _break_a_suite(monkeypatch, cpus)
    with pytest.raises(DomainError) as info:
        run_suite("all", 3, 1e-6)
    assert str(info.value) == message


def test_all_ends_the_other_suites_on_an_error(monkeypatch, tmp_path):
    """The first suite raises; the suites running or queued beside it never finish."""
    first, *rest = SUITES

    def broken(bound, precision):
        raise DomainError("broken first suite")

    def marker(name):
        def suite(bound, precision):
            time.sleep(1.0)
            (tmp_path / name).touch()
            return []

        return suite

    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    monkeypatch.setitem(SUITES, first, broken)
    for name in rest:
        monkeypatch.setitem(SUITES, name, marker(name))
    with pytest.raises(DomainError, match="^broken first suite$"):
        run_suite("all", 3, 1e-6)
    assert not list(tmp_path.iterdir())


def test_all_reports_a_late_error_before_the_earlier_suites_finish(monkeypatch, tmp_path):
    """``theorem5`` raises at once; its error arrives while a suite before it still runs."""
    names = list(SUITES)
    earlier = names[: names.index("theorem5")]

    def broken(bound, precision):
        raise DomainError("broken theorem5")

    def marker(name, seconds):
        def suite(bound, precision):
            time.sleep(seconds)
            (tmp_path / name).touch()
            return []

        return suite

    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    monkeypatch.setitem(SUITES, "theorem5", broken)
    for name in earlier:
        monkeypatch.setitem(SUITES, name, marker(name, 2.0 if name == earlier[-1] else 0.05))
    with pytest.raises(DomainError, match="^broken theorem5$"):
        run_suite("all", 3, 1e-6)
    assert len(list(tmp_path.iterdir())) < len(earlier)


def test_check_reports_a_worker_error_as_a_domain_error(monkeypatch, capsys):
    message = _break_a_suite(monkeypatch, 2)
    assert cli.main(["check", "--suite", "all", "--weight-bound", "3"]) == cli.EXIT_DOMAIN_ERROR
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("cpus", [1, 2])
def test_all_reports_an_uncertifiable_value_as_one_failed_entry(monkeypatch, capsys, cpus):
    """A suite that meets PrecisionUnreachable keeps its entries so far and ends
    in one failed entry naming the error; the other suites still report, in
    process and in workers, and ``check`` exits 1."""
    error = "combination: certified error 2e-12 exceeds 1e-12"

    def bare(name):
        return lambda bound, precision: iter([{"instance": f"{name} {i}", "pass": True} for i in range(2)])

    def stopping(bound, precision):
        yield {"instance": "morphisms 0", "pass": True}
        raise PrecisionUnreachable(error)

    monkeypatch.setattr(suites, "_cpu_count", lambda: cpus)
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, bare(name))
    monkeypatch.setitem(SUITES, "morphisms", stopping)
    report = run_suite("all", 3, 1e-12)
    failed = {
        "suite": "morphisms",
        "instance": f"suite stopped by PrecisionUnreachable: {error}",
        "lhs": "error",
        "rhs": "error",
        "residual": 1.0,
        "tolerance": 0.0,
        "pass": False,
    }
    expected = []
    for n in SUITES:
        if n == "morphisms":
            expected += [{"suite": n, "instance": "morphisms 0", "pass": True}, failed]
        else:
            expected += [{"suite": n, "instance": f"{n} {i}", "pass": True} for i in range(2)]
    assert report == expected
    assert cli.main(["check", "--suite", "all", "--weight-bound", "3", "--precision", "1e-12"]) == cli.EXIT_CHECK_FAILED
    out, err = capsys.readouterr()
    assert f"[FAIL] morphisms: suite stopped by PrecisionUnreachable: {error}\n" in out and not err


def test_morphisms_at_1e12_end_in_one_failed_entry():
    """At 1e-12 a morphisms value cannot be certified: the suite reports what it
    checked before it and one failed entry instead of raising."""
    report = run_suite("morphisms", 6, 1e-12)
    assert [e["pass"] for e in report] == [True] * (len(report) - 1) + [False]
    assert report[-1]["instance"].startswith("suite stopped by PrecisionUnreachable: ")


def test_family_counts_failures_and_names_the_first():
    described = []

    def describe(case):
        described.append(case)
        return f"n={case}"

    entry = _family("even numbers", iter([2, 4, 5, 6, 7]), lambda n: n % 2 == 0, describe)
    assert entry["instance"] == "even numbers [5 instances]; first failure: n=5"
    assert (entry["lhs"], entry["rhs"], entry["tolerance"]) == ("exact", "exact", 0.0)
    assert entry["residual"] == 2.0
    assert entry["pass"] is False
    assert described == [5]

    passing = _family("even numbers", [2, 4], lambda n: n % 2 == 0, describe)
    assert passing["instance"] == "even numbers [2 instances]"
    assert passing["residual"] == 0.0 and passing["pass"] is True
    assert described == [5]


def test_exact_entry_passes_only_when_nothing_fails():
    entry = _exact("law", 0)
    assert (entry["instance"], entry["lhs"], entry["rhs"]) == ("law", "exact", "exact")
    assert (entry["residual"], entry["tolerance"], entry["pass"]) == (0.0, 0.0, True)
    for failures, residual in ((True, 1.0), (3, 3.0)):
        failing = _exact("law", failures)
        assert (failing["residual"], failing["pass"]) == (residual, False)


def test_certified_entry_passes_at_the_sum_of_the_bounds_and_fails_past_it():
    lhs = MzvEval(1.0, 0.25)
    entry = _certified("gap", lhs, MzvEval(1.5, 0.25))
    assert (entry["lhs"], entry["rhs"], entry["residual"], entry["tolerance"]) == (1.0, 1.5, 0.5, 0.5)
    assert entry["pass"] is True
    past = _certified("gap", lhs, MzvEval(math.nextafter(1.5, 2.0), 0.25))
    assert past["residual"] > past["tolerance"] == 0.5
    assert past["pass"] is False


def test_product_bound_covers_the_worst_corner_and_the_rounding():
    prod = _product(MzvEval(2.0, 0.5), MzvEval(3.0, 0.25))
    assert prod.value == 6.0
    assert prod.abs_error == 2.0 * 0.25 + 3.0 * 0.5 + 0.5 * 0.25 + 6.0 * 2.0**-53
    assert abs(2.5 * 3.25 - prod.value) <= prod.abs_error
    # Exact factors: only the rounding of the product is left.
    third, three = MzvEval(1 / 3, 0.0), MzvEval(3.0, 0.0)
    prod = _product(third, three)
    error = abs(Fraction(third.value) * 3 - Fraction(prod.value))
    assert 0 < error <= Fraction(prod.abs_error) == Fraction(2.0**-53)


def test_morphisms_fail_on_an_error_of_1e9_in_every_arborified_value(monkeypatch):
    """Each entry that compares azv with a product of azv values catches the
    error: 10 concatenation and 50 tree-shuffle entries."""
    azv = suites.azv

    def off(*args):
        ev = azv(*args)
        return MzvEval(ev.value + 1e-9, ev.abs_error)

    monkeypatch.setattr(suites, "azv", off)
    entries = run_suite("morphisms", 6, 1e-8)
    assert len(entries) == 104
    assert sum(not entry["pass"] for entry in entries) >= 60


def _shifted(evaluate, by=1e-12):
    """``evaluate`` with ``by`` added to every value it returns, bounds kept."""

    def off(*args):
        ev = evaluate(*args)
        return MzvEval(ev.value + by, ev.abs_error)

    return off


def test_closed_forms_fail_on_an_error_of_1e12_in_every_value(monkeypatch):
    """Each closed form is a decimal literal held to the certified bounds, not
    to the precision, so 1e-12 added to every value the suites evaluate fails
    all of them at precision 1e-8."""
    for name in ("eval_mzv", "eval_combination", "eval_polylog", "eval_arborified_polylog"):
        monkeypatch.setattr(suites, name, _shifted(getattr(suites, name)))
    for name, closed_forms in (("mzv-oracles", 6), ("star-reduction", 5), ("polylog", 5)):
        entries = run_suite(name, 6, 1e-8)[:closed_forms]
        assert all(isinstance(e["rhs"], float) for e in entries), name
        assert not any(e["pass"] for e in entries), [e["instance"] for e in entries if e["pass"]]


def test_thresholds_fail_on_an_error_of_1e12(monkeypatch):
    """Each hoffman-words case is held to its own bound, and theorem5's ladder
    equality to the sum of its two sides' bounds."""
    monkeypatch.setattr(suites, "eval_combination", _shifted(suites.eval_combination))
    kernel = run_suite("hoffman-words", 6, 1e-8)[1]
    assert kernel["instance"].startswith("regularisation combination lies in the shuffle kernel")
    assert kernel["residual"] == 31.0 and not kernel["pass"]

    azv = suites.azv

    def stuffle_off(forest, flavor, precision):
        ev = azv(forest, flavor, precision)
        return MzvEval(ev.value + 1e-12, ev.abs_error) if flavor == "stuffle" else ev

    monkeypatch.setattr(suites, "azv", stuffle_off)
    never, ladders, branching = run_suite("theorem5", 4, 1e-8)
    assert never["pass"] and branching["pass"]
    assert ladders["instance"].startswith("equality on ladder trees (worst |gap| = 1e-12)")
    assert not ladders["pass"]


def test_tally_counts_failures_and_names_the_first():
    described = []

    def describe(case):
        described.append(case)
        return f"n={case}"

    entry = _tally("odd numbers fail [5 cases]", iter([2, 4, 5, 6, 7]), lambda n: n % 2, 0.5, describe)
    assert entry["instance"] == "odd numbers fail [5 cases]; first failure: n=5"
    assert (entry["lhs"], entry["rhs"], entry["tolerance"]) == (0.5, 0.0, 0.0)
    assert entry["residual"] == 2.0
    assert entry["pass"] is False
    assert described == [5]

    passing = _tally("odd numbers fail", [2, 4], lambda n: n % 2, describe=describe)
    assert passing["instance"] == "odd numbers fail"
    assert (passing["lhs"], passing["residual"], passing["pass"]) == (0.0, 0.0, True)
    assert described == [5]


def test_witness_text_of_words_forests_and_lambda():
    pair = (Word((1, 2)), Word((2,)))
    entry = _family("never", [pair], lambda _: False)
    assert entry["instance"] == "never [1 instances]; first failure: (1,2) | (2)"
    case = (syntax.parse_expression("2[1]"), -1)
    entry = _family("never", [case], lambda _: False, _with_lambda)
    assert entry["instance"] == "never [1 instances]; first failure: 2[1] lam=-1"


def test_pairs_match_the_filtered_double_loop():
    items = ["", "a", "b", "cc", "dd", "eee"]
    for limit in range(-1, 8):
        want = [(a, b) for a in items for b in items if len(a) + len(b) <= limit]
        assert list(_pairs(items, len, limit)) == want


def test_companion_drops_the_redistribution_factor():
    """Two leaves times one leaf: each pairing grafts both ways, with coefficient one (not 1/2)."""
    p = syntax.parse_expression
    assert _companion(p("1 2"), p("3")) == p("1[3] 2 + 3[1] 2 + 2[3] 1 + 3[2] 1")
    pair = p("1 2")
    assert _companion(pair, Forest()) == LinComb.of(pair) == _companion(Forest(), pair)


def test_companion_associator_of_the_four_point_witness():
    """(a b, c, d) with a, b, c, d = 1, 2, 3, 4: the published product pairs
    (a[d] + d[a])(b[c] + c[b]) + (b[d] + d[b])(a[c] + c[a]), expanded."""
    p = syntax.parse_expression
    pairs = p(
        "1[4] 2[3] + 1[4] 3[2] + 4[1] 2[3] + 4[1] 3[2] + 2[4] 1[3] + 2[4] 3[1] + 4[2] 1[3] + 4[2] 3[1]"
    )
    assert _unnormalized_associator(p("1 2"), p("3"), p("4")) == pairs
