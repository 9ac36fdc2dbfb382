import math
import pickle
from fractions import Fraction
from functools import cache
from itertools import accumulate

import mpmath as mp
import pytest

from arbozeta import zeta
from arbozeta.catalog import compositions_of, forests_up_to
from arbozeta.errors import DivergentIndex, DomainError, NonConvergent, PrecisionUnreachable
from arbozeta.forest_algebra import convergence_class, ConvergenceClass
from arbozeta.lincomb import LinComb
from arbozeta.suites import brute_force_azv
from arbozeta.trees import Forest, Tree, b_plus, ladder, leaf, tree_forest
from arbozeta.zeta import (
    MzvCombination,
    MzvEval,
    MZV_TAIL,
    azv,
    clear_mzv_cache,
    eval_arborified_polylog,
    eval_combination,
    eval_mzv,
    eval_polylog,
    reduce_azv,
    star_to_strict,
    words_to_combination,
)
from arbozeta.words import MAX_STAR_PARTS, MAX_WEIGHT, Word

mp.mp.dps = 30


def brute_mzv(s, horizon, star=False):
    """Reference nested summation, independent of the evaluator's tail models."""
    ns = range(1, horizon + 1)
    cur = [n ** -s[-1] for n in ns]
    for part in reversed(s[:-1]):
        # the sums of the inner terms below n (strict) or up to n (star)
        pre = accumulate(cur, initial=0.0)
        if star:
            next(pre)
        cur = [n**-part * inner for n, inner in zip(ns, pre)]
    return math.fsum(cur)


CLOSED_FORMS = {
    (2,): mp.pi**2 / 6,
    (4,): mp.pi**4 / 90,
    (2, 2): mp.pi**4 / 120,
    (2, 1): mp.zeta(3),
    (2, 1, 1): mp.zeta(4),
    (3, 1): mp.pi**4 / 360,
    (2, 2, 2): mp.pi**6 / 5040,
    (2, 1, 1, 1): mp.zeta(5),
}


class TestEvalMzv:
    @pytest.mark.parametrize("index,value", sorted(CLOSED_FORMS.items()))
    def test_closed_forms(self, index, value):
        ev = eval_mzv(index, "strict", 1e-10)
        assert ev.abs_error <= 1e-10
        assert abs(ev.value - float(value)) <= ev.abs_error

    def test_certified_bound_vs_brute(self):
        for s in [(2, 3), (3, 1, 2), (2, 1, 2, 1), (4, 1, 1)]:
            ev = eval_mzv(s, "strict", 1e-9)
            ref = brute_mzv(s, 60000)
            # brute truncation dominates; the evaluator must sit above it,
            # closer to the limit, and within a coarse envelope
            assert ev.value >= ref - 1e-12
            assert ev.value - ref < 0.05

    def test_empty_index_is_one(self):
        ev = eval_mzv((), "strict")
        assert ev.value == 1.0 and ev.abs_error == 0.0

    def test_divergent_rejected(self):
        with pytest.raises(DivergentIndex):
            eval_mzv((1, 2), "strict")
        with pytest.raises(DivergentIndex):
            eval_mzv((1,), "star")

    def test_star_values(self):
        z3 = float(mp.zeta(3))
        ev = eval_mzv((2, 1), "star", 1e-10)
        assert abs(ev.value - 2 * z3) <= 2e-10

    def test_star_vs_brute(self):
        for s in [(2, 1, 1), (2, 2), (3, 1)]:
            ev = eval_mzv(s, "star", 1e-9)
            ref = brute_mzv(s, 60000, star=True)
            assert ev.value >= ref - 1e-12
            assert ev.value - ref < 0.05

    def test_deep_ones_reach_high_precision(self):
        duality = float(mp.zeta(7))
        ev = eval_mzv((2, 1, 1, 1, 1, 1), "strict", 1e-11)
        assert abs(ev.value - duality) <= ev.abs_error <= 1e-11

    def test_precision_unreachable(self):
        """The kernel's floor is about 1e-15 relative, so 1e-17 is refused."""
        clear_mzv_cache()
        with pytest.raises(PrecisionUnreachable):
            eval_mzv((2, 1, 1), "strict", 1e-17)

    def test_cache_returns_finer(self):
        fine = eval_mzv((3, 2), "strict", 1e-12)
        coarse = eval_mzv((3, 2), "strict", 1e-6)
        assert coarse.abs_error <= 1e-12
        assert coarse.value == fine.value


@cache
def _exact_level(v, n):
    """S_v(m) = sum_{m > m_1 > ...} prod m_i^-v_i for m = 1..n, in mpmath at 50 digits."""
    with mp.workdps(50):
        if not v:
            return (mp.mpf(1),) * n
        below = _exact_level(v[1:], n)
        out, running = [], mp.mpf(0)
        for m in range(1, n + 1):
            out.append(running)
            running += below[m - 1] / mp.mpf(m) ** v[0]
        return tuple(out)


@cache
def _exact_weights(r, z, n):
    """z^m / m^r for m = 1..n, in mpmath at 50 digits."""
    with mp.workdps(50):
        return tuple(mp.mpf(z) ** m / mp.mpf(m) ** r for m in range(1, n + 1))


def _roundoff_gaps(s, z, n):
    """(suffix, exact - kernel, roundoff bound) for every suffix of binarise(s) at horizon n."""
    with mp.workdps(50):
        for u, fixed in zeta._fixed_polylogs(s, z, n).items():
            exact = mp.fsum(map(mp.fmul, _exact_weights(u[0], z, n), _exact_level(u[1:], n)))
            yield u, exact - mp.mpf(fixed) / mp.mpf(2) ** (3 * zeta.P), zeta._roundoffs(len(u), z, n)[-1]


class TestFixedPointKernel:
    """The fixed-point sums against the same truncated sums in mpmath at 50 digits.

    Every floor rounds down, so the kernel sits below the exact truncated sum,
    by no more than the roundoff term derived in the zeta docstring.
    """

    FLOOR = 1e-45  # the mpmath comparison's own rounding, far below any bound

    @pytest.mark.parametrize("weight", range(2, 9))
    def test_mzv_suffixes_at_half(self, weight):
        for s in compositions_of(weight, first_min=2):
            n, _ = zeta._horizon(s, 0.5, MZV_TAIL)
            for u, gap, bound in _roundoff_gaps(s, 0.5, n):
                assert -self.FLOOR <= gap <= bound, (s, u)

    @pytest.mark.parametrize("z", [0.25, 0.5, 0.9, 0.99])
    def test_polylogs(self, z):
        for s in [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 1, 1), (3, 1, 2)]:
            n, _ = zeta._horizon(s, z, 0.5e-10)
            for u, gap, bound in _roundoff_gaps(s, z, n):
                assert -self.FLOOR <= gap <= bound, (s, z, u)

    def test_zeta_horizons_stay_far_below_the_cap(self):
        """The deepest index of the weight bound, (2, 1^254), needs 128 terms and its dual (256) 64."""
        deepest = (2,) + (1,) * (MAX_WEIGHT - 2)
        assert zeta._horizon(deepest, 0.5, MZV_TAIL)[0] == 128
        assert zeta._dual(deepest) == (MAX_WEIGHT,)
        assert zeta._horizon((MAX_WEIGHT,), 0.5, MZV_TAIL)[0] == 64

    @pytest.mark.parametrize("z, tail", [(0.5, MZV_TAIL)] + [(z, 0.5e-10) for z in (0.25, 0.5, 0.9, 0.99)])
    def test_no_horizon_grows(self, z, tail):
        """Dividing the tail majorant by ones! never lengthens a horizon: at every
        depth up to the weight bound, each is at most the one that the majorant
        prod zeta(p) (1 + ln m)^ones, without the factorial, gives."""

        def undivided_horizon(s):
            n = zeta.FIRST_N
            while undivided_tail(s[1:], n) > tail:
                n *= 2
            return n

        def undivided_tail(inner, n):
            ones = inner.count(1)
            log_end = 1.0 + math.log(n + 1)
            ratio = z * math.exp(ones / ((n + 1) * log_end))
            if ratio >= 1.0:
                return math.inf
            return math.exp(
                (n + 1) * math.log(z)
                - math.log(n + 1)
                + ones * math.log(log_end)
                + sum(math.log(p / (p - 1)) for p in inner if p > 1)
                - math.log1p(-ratio)
            )

        shortened = 0
        for weight in range(2, MAX_WEIGHT + 1):
            for s in [(1,) * weight, (2,) + (1,) * (weight - 2)]:
                n, before = zeta._horizon(s, z, tail)[0], undivided_horizon(s)
                assert n <= before, (s, z)
                shortened += n < before
        assert shortened

    def test_block_walk_floors_as_one_pass(self, monkeypatch):
        s, z, n = (3, 1, 2), 0.9, 200
        clear_mzv_cache()
        whole = zeta._fixed_polylogs(s, z, n)
        clear_mzv_cache()
        monkeypatch.setattr(zeta, "BLOCK", 16)  # 12 full blocks and a partial one
        assert zeta._fixed_polylogs(s, z, n) == whole
        assert not (zeta._TABLES or zeta._ZPOWERS or zeta._WEIGHTS or zeta._LEVELS)
        clear_mzv_cache()

    def test_tail_bound_past_float_range_is_infinite(self):
        # The index of an arborified polylog is not bounded by weight: the tail
        # majorant of 1,100 inner parts 2 near z = 1, about 2^1100, overflows a float.
        assert zeta._tail_bound((2,) * 1100, 0.999999, 64) == math.inf

    @pytest.mark.parametrize("z", [0.5, 0.9])
    def test_roundoff_against_exact_fractions(self, z):
        """At N = 64 and depth <= 12 each fixed-point sum lies below the exact
        truncated sum, computed in Fractions, by less than its roundoff bound."""
        n, x = 64, Fraction(z)
        for s in [(2,) + (1,) * 11, (3, 1, 2, 1, 1, 2, 1, 1, 1, 2, 1, 1), (2, 2, 2, 2, 2, 2)]:
            bounds = zeta._roundoffs(len(s), z, n)
            for u, fixed in zeta._fixed_polylogs(s, z, n).items():
                level = [Fraction(1)] * n  # S_v(m), m = 1..n, innermost first
                for part in reversed(u[1:]):
                    level = list(accumulate((t / m**part for m, t in enumerate(level, 1)), initial=Fraction(0)))[:n]
                exact = sum(x**m / m ** u[0] * t for m, t in enumerate(level, 1))
                gap = exact - Fraction(fixed, 2 ** (3 * zeta.P))
                assert 0 <= gap <= Fraction(bounds[len(u)]), (s, u)

    def test_roundoff_bound_never_grows(self):
        """The depth-free bound is never above the L^k-shaped (k + 2/(1 - z)) (N + 1) L^k 2^-P,
        at every depth 1..MAX_WEIGHT the kernel reads and every horizon it can pick:
        FIRST_N * 2^j below MAX_N, and MAX_N."""
        horizons = [n for n in (zeta.FIRST_N << j for j in range(24)) if n < zeta.MAX_N] + [zeta.MAX_N]
        for z in (0.25, 0.5, 0.9, 0.99):
            for n in horizons:
                for k, bound in enumerate(zeta._roundoffs(MAX_WEIGHT, z, n)[1:], 1):
                    try:
                        earlier = (k + 2 / (1 - z)) * (n + 1) * (1 + math.log(n)) ** k * 2.0**-zeta.P
                    except OverflowError:
                        earlier = math.inf
                    assert bound <= earlier, (z, n, k)

    def test_roundoff_stays_small_at_every_depth(self):
        """At N = 1,024, four times the longest zeta horizon, no depth up to the weight bound needs more than 1e-29."""
        assert max(zeta._roundoffs(MAX_WEIGHT, 0.5, 1024)) < 1e-29

    def test_clear_empties_kernel_memos(self):
        eval_mzv((3, 1, 2), "star", 1e-10)
        eval_polylog((2, 1), 0.9, 1e-10)
        memos = (zeta._MZV_CACHE, zeta._TABLES, zeta._ZPOWERS, zeta._WEIGHTS, zeta._LEVELS, zeta._SUMS)
        assert all(memos)
        clear_mzv_cache()
        assert not any(memos)


class TestIndependentOracles:
    """Identities that the Hölder convolution does not build in."""

    @pytest.mark.parametrize("weight", range(2, 11))
    def test_sum_theorem(self, weight):
        # the zeta(s) over admissible s of one weight and depth sum to zeta(weight)
        whole = eval_mzv((weight,), "strict", 1e-12)
        for depth in range(1, weight):
            evs = [
                eval_mzv(s, "strict", 1e-12)
                for s in compositions_of(weight, first_min=2)
                if len(s) == depth
            ]
            total = math.fsum(ev.value for ev in evs)
            bound = sum(ev.abs_error for ev in evs) + whole.abs_error + math.ulp(total)
            assert abs(total - whole.value) <= bound, (weight, depth)

    @pytest.mark.parametrize("k", range(0, 9))
    def test_two_then_ones(self, k):
        ev = eval_mzv((2,) + (1,) * k, "strict", 1e-12)
        assert abs(mp.mpf(ev.value) - mp.zeta(k + 2)) <= ev.abs_error <= 1e-12

    def test_every_single_part_within_its_bound(self):
        """zeta(n) for every n up to the weight bound, against mpmath: the Hölder
        convolution pairs (n) with its dual (2, 1^(n-2)), of n - 1 parts."""
        for n in range(2, MAX_WEIGHT + 1):
            ev = eval_mzv((n,), "strict", 1e-12)
            assert abs(mp.mpf(ev.value) - mp.zeta(n)) <= ev.abs_error, n

    def test_two_then_ones_is_dual_to_one_part(self):
        """Duality: zeta(2, 1^k) = zeta(k + 2), within the sum of both bounds, for every k
        of the weight bound."""
        for k in range(MAX_WEIGHT - 1):
            a, b = eval_mzv((2,) + (1,) * k, "strict", 1e-12), eval_mzv((k + 2,), "strict", 1e-12)
            assert abs(a.value - b.value) <= a.abs_error + b.abs_error, k

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_three_one_strings(self, k):
        ev = eval_mzv((3, 1) * k, "strict", 1e-12)
        want = 2 * mp.pi ** (4 * k) / mp.factorial(4 * k + 2)
        assert abs(mp.mpf(ev.value) - want) <= ev.abs_error

    def test_corolla_with_seven_leaves(self):
        ev = azv(tree_forest(Tree(2, (leaf(1),) * 7)), "stuffle", 1e-8)
        assert ev.abs_error <= 1e-8


class TestPrecisionArgument:
    BAD = [float("nan"), float("inf"), 0.0, -1.0]

    @pytest.mark.parametrize("precision", BAD)
    def test_rejected_by_every_evaluator(self, precision):
        with pytest.raises(DomainError):
            eval_mzv((2,), "strict", precision)
        with pytest.raises(DomainError):
            eval_combination(MzvCombination({(2,): 1}), precision)
        with pytest.raises(DomainError):
            eval_polylog((2,), 0.5, precision)
        with pytest.raises(DomainError):
            eval_arborified_polylog(tree_forest(leaf("y")), 0.5, precision)

    @pytest.mark.parametrize("part", [8, 16])
    def test_polylog_honours_cap(self, part):
        """Near z = 1 the tail bound meets the precision only past the constant cap zeta.MAX_N."""
        with pytest.raises(PrecisionUnreachable, match=f"needs a horizon beyond {zeta.MAX_N}$"):
            eval_polylog((part,), 0.9999999, 1e-10)

    def test_polylog_below_floor_fails(self):
        with pytest.raises(PrecisionUnreachable):
            eval_polylog((3,), 0.5, 1e-17)

    def test_index_weight_bounded(self):
        heavy = (2,) + (1,) * (MAX_WEIGHT - 1)
        for index in [(MAX_WEIGHT + 1,), heavy]:
            with pytest.raises(DomainError, match=f"^index of weight {sum(index)} is above the weight bound"):
                eval_mzv(index, "strict")
            with pytest.raises(DomainError):
                eval_polylog(index, 0.5)
            with pytest.raises(DomainError):
                MzvCombination({index: 1}, "star")
        assert MzvCombination({(MAX_WEIGHT,): 1}).terms == {(MAX_WEIGHT,): 1}


class TestStarToStrict:
    def test_depth_one(self):
        assert star_to_strict((2,)).terms == {(2,): 1}

    def test_examples(self):
        assert star_to_strict((2, 1)).terms == {(2, 1): 1, (3,): 1}
        assert star_to_strict((2, 1, 1)).terms == {
            (2, 1, 1): 1,
            (3, 1): 1,
            (2, 2): 1,
            (4,): 1,
        }

    def test_agrees_with_direct_star(self):
        for s in [(2, 1), (2, 2), (2, 1, 1), (3, 1, 2)]:
            direct = eval_mzv(s, "star", 1e-10)
            merged = eval_combination(star_to_strict(s), 1e-10)
            assert abs(direct.value - merged.value) <= direct.abs_error + merged.abs_error

    def test_brute_force_triple(self):
        # non-strict triple sum at a small horizon, coarse tolerance
        total = 0.0
        for n1 in range(1, 301):
            inner2 = 0.0
            for n2 in range(1, n1 + 1):
                inner3 = sum(1.0 / n3 for n3 in range(1, n2 + 1))
                inner2 += inner3 / n2
            total += inner2 / n1**2
        merged = eval_combination(star_to_strict((2, 1, 1)), 1e-10)
        assert abs(total - merged.value) < 0.1

    def test_divergent_rejected(self):
        with pytest.raises(DivergentIndex):
            star_to_strict((1, 2))

    def test_parts_bound(self):
        """MAX_STAR_PARTS parts expand into all 2^(parts - 1) merges; one more is refused."""
        assert len(star_to_strict((2,) * MAX_STAR_PARTS)) == 2 ** (MAX_STAR_PARTS - 1)
        for s in ((2,) * (MAX_STAR_PARTS + 1), (2,) * 100):
            with pytest.raises(DomainError, match=f"above the bound of {MAX_STAR_PARTS} parts"):
                star_to_strict(s)
            with pytest.raises(DomainError, match=f"above the bound of {MAX_STAR_PARTS} parts"):
                eval_mzv(s, "star")


class TestReduceAzv:
    def test_two_vertices(self):
        red = reduce_azv(Forest((leaf(2), leaf(2))), "stuffle")
        assert red.terms == {(2, 2): 2, (4,): 1}
        assert red.flavor == "strict"

    def test_unit(self):
        red = reduce_azv(Forest(), "stuffle")
        assert red.terms == {(): 1}
        assert eval_combination(red).value == 1.0

    def test_shuffle_corolla(self):
        forest = tree_forest(
            b_plus("x", tree_forest(b_plus("y", tree_forest(leaf("y"), leaf("y")))))
        )
        red = reduce_azv(forest, "shuffle")
        assert red.terms == {(2, 1, 1): 2}

    def test_ladders_restrict_to_mzvs(self):
        for comp in [(2,), (3, 1), (2, 1, 2)]:
            red = reduce_azv(ladder(comp), "stuffle")
            assert red.terms == {comp: 1}

    def test_divergent_rejected(self):
        with pytest.raises(NonConvergent):
            reduce_azv(tree_forest(leaf(1)), "stuffle")

    def test_cancelling_divergences_allowed(self):
        bad = tree_forest(Tree(1, (leaf(2),)))
        comb = LinComb.of(bad) + LinComb.of(tree_forest(leaf(2))) - LinComb.of(bad)
        red = reduce_azv(comb, "stuffle")
        assert red.terms == {(2,): 1}

    def test_integer_coefficients(self):
        for forest in forests_up_to(4, (1, 2, 3)):
            if convergence_class(forest) is not ConvergenceClass.CONV_POSINT:
                continue
            assert reduce_azv(forest, "stuffle").all_integer()
            assert reduce_azv(forest, "star").all_integer()

    def test_star_flavor(self):
        red = reduce_azv(Forest((leaf(2), leaf(2))), "star")
        assert red.flavor == "star"
        assert red.terms == {(2, 2): 2, (4,): -1}


class TestEvalCombination:
    def test_pi_fourth_over_36(self):
        ev = eval_combination(MzvCombination({(2, 2): 2, (4,): 1}), 1e-10)
        assert abs(ev.value - math.pi**4 / 36) <= 1e-10

    def test_empty_is_zero(self):
        ev = eval_combination(MzvCombination({}))
        assert ev.value == 0.0
        ev = eval_combination(MzvCombination({}, "strict"))
        assert (ev.value, ev.abs_error) == (0.0, 0.0)

    def test_unit_term(self):
        ev = eval_combination(MzvCombination({(): 1}))
        assert ev.value == 1.0 and ev.abs_error == 0.0

    def test_euler_product_identity(self):
        # zeta(2,3)+zeta(3,2) = zeta(2)zeta(3) - zeta(5)
        lhs = eval_combination(MzvCombination({(2, 3): 1, (3, 2): 1}), 1e-10)
        rhs = float(mp.zeta(2) * mp.zeta(3) - mp.zeta(5))
        assert abs(lhs.value - rhs) <= 1e-9

    def test_budget_split(self):
        comb = MzvCombination({(2,): 1000000, (3,): -1})
        ev = eval_combination(comb, 1e-8)
        want = 1000000 * float(mp.zeta(2)) - float(mp.zeta(3))
        assert abs(ev.value - want) <= ev.abs_error <= 1e-8

    @pytest.mark.parametrize("index", [(2, 0), (2, 1.5), (1, 2)])
    def test_bad_index_refused_when_built(self, index):
        with pytest.raises(DivergentIndex):
            MzvCombination({index: 1})
        with pytest.raises(DivergentIndex):
            MzvCombination({(3,): 1, index: 2}, "star")

    def test_unknown_flavor_refused_when_built(self):
        with pytest.raises(ValueError, match="unknown flavor 'bogus'"):
            MzvCombination({(2,): 1}, "bogus")
        with pytest.raises(ValueError, match="unknown flavor 'bogus'"):
            MzvCombination({}, "bogus")

    def test_zero_coefficient_refused_when_built(self):
        with pytest.raises(ValueError, match="zero coefficient"):
            MzvCombination({(2,): 0})

    def test_divergent_word_refused(self):
        with pytest.raises(DivergentIndex):
            words_to_combination(LinComb.of(Word([1, 2])), "strict")
        with pytest.raises(DivergentIndex):
            words_to_combination(LinComb.of(Word("yy")), "strict")

    @pytest.mark.parametrize("flavor", ["strict", "star"])
    def test_eval_mzv_is_a_one_term_combination(self, flavor):
        """Wrapping one index with coefficient 1 changes neither the value nor the bound."""
        for s in [(), (2,), (3,), (2, 1), (2, 2), (3, 1, 2), (2, 1, 1, 1), (4, 1, 1)]:
            ev = eval_mzv(s, flavor)
            comb = eval_combination(MzvCombination({s: 1}, flavor))
            assert (ev.value, ev.abs_error) == (comb.value, comb.abs_error)
            if s:
                kernel = zeta._MZV_CACHE[(flavor, s)]
                assert (ev.value, ev.abs_error) == (kernel.value, kernel.abs_error)


class TestResultValues:
    """The two result types compare, print and refuse changes field by field, like frozen dataclasses."""

    def test_eval_equality_and_hash(self):
        ev = MzvEval(1.5, 2.5e-12)
        assert ev == MzvEval(value=1.5, abs_error=2.5e-12)
        assert ev != MzvEval(1.5, 0.0) and ev != MzvEval(-1.5, 2.5e-12)
        assert ev != (1.5, 2.5e-12)
        assert hash(ev) == hash(MzvEval(1.5, 2.5e-12))
        assert len({ev, MzvEval(1.5, 2.5e-12), MzvEval(0.0, 0.0)}) == 2

    def test_eval_repr(self):
        assert repr(MzvEval(1.2020569031595942, 2.5e-12)) == "MzvEval(value=1.2020569031595942, abs_error=2.5e-12)"
        assert repr(MzvEval(-0.5, 0)) == "MzvEval(value=-0.5, abs_error=0)"

    def test_combination_equality(self):
        comb = MzvCombination({(2, 2): 2, (4,): 1})
        assert comb == MzvCombination(terms={(4,): 1, (2, 2): 2}, flavor="strict")
        assert comb != MzvCombination({(2, 2): 2, (4,): 1}, "star")
        assert comb != MzvCombination({(2, 2): 2})
        assert comb != {(2, 2): 2, (4,): 1}
        assert MzvCombination() == MzvCombination({}, "strict")
        assert MzvCombination().terms is not MzvCombination().terms

    def test_combination_repr(self):
        assert repr(MzvCombination({(2, 1): Fraction(-1, 2)}, "star")) == (
            "MzvCombination(terms={(2, 1): Fraction(-1, 2)}, flavor='star')"
        )
        assert repr(MzvCombination()) == "MzvCombination(terms={}, flavor='strict')"

    def test_combination_is_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(MzvCombination({(2,): 1}))

    @pytest.mark.parametrize(
        "value,field",
        [(MzvEval(1.0, 0.0), "value"), (MzvEval(1.0, 0.0), "abs_error"), (MzvCombination({(2,): 1}), "terms"),
         (MzvCombination({(2,): 1}), "flavor"), (MzvCombination(), "other")],
        ids=["value", "abs_error", "terms", "flavor", "new field"],
    )
    def test_fields_cannot_be_set_or_deleted(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)

    def test_pickle_round_trip(self):
        for value in (MzvEval(1.5, 2.5e-12), MzvCombination({(2, 1): Fraction(1, 3)}, "star")):
            assert pickle.loads(pickle.dumps(value)) == value


class TestBruteForceAzv:
    def test_matches_reduction_small(self):
        for forest in forests_up_to(3, (1, 2, 3)):
            if convergence_class(forest) is not ConvergenceClass.CONV_POSINT:
                continue
            for flavor in ("stuffle", "star"):
                brute = brute_force_azv(forest, 2000, flavor)
                reduced = eval_combination(reduce_azv(forest, flavor), 1e-10)
                assert abs(brute.value - reduced.value) <= brute.abs_error + reduced.abs_error

    def test_literal_nested_loops(self):
        # corolla 2[1,1]: strict series sum_n n^-2 * (H_{n-1})^2
        tree = tree_forest(Tree(2, (leaf(1), leaf(1))))
        total = 0.0
        harmonic = 0.0
        for n in range(1, 4000):
            total += harmonic**2 / n**2
            harmonic += 1.0 / n
        via_arrays = brute_force_azv(tree, 3999, "stuffle")
        assert abs(via_arrays.value - total) < 1e-12

    def test_literal_nested_loops_star(self):
        # corolla 2[1,1]: star series sum_n n^-2 * (H_n)^2, the inner sums inclusive
        tree = tree_forest(Tree(2, (leaf(1), leaf(1))))
        total = 0.0
        harmonic = 0.0
        for n in range(1, 4000):
            harmonic += 1.0 / n
            total += harmonic**2 / n**2
        via_arrays = brute_force_azv(tree, 3999, "star")
        assert abs(via_arrays.value - total) < 1e-12
