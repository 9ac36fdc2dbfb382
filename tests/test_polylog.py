import math
from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import mul

import mpmath as mp
import pytest

from arbozeta.catalog import forests_up_to
from arbozeta import suites, zeta
from arbozeta.errors import DomainError, NotSemiconvergent, PrecisionUnreachable
from arbozeta.forest_algebra import convergence_class
from arbozeta.lincomb import LinComb
from arbozeta.suites import brute_polylog_forest
from arbozeta.trees import Alphabet, Forest, b_plus, ladder, leaf, tree_forest
from arbozeta.zeta import MzvCombination, eval_arborified_polylog, eval_combination, eval_mzv, eval_polylog


@pytest.fixture
def no_kernel(monkeypatch):
    """Fail the test if the fixed-point kernel runs."""

    def kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(zeta, "_fixed_polylogs", kernel)


class TestPolylog:
    def test_log_oracle(self):
        ev = eval_polylog((1,), 0.5, 1e-10)
        assert abs(ev.value - math.log(2)) <= 1e-10

    def test_empty_index(self):
        assert eval_polylog((), 0.3).value == 1.0

    def test_dilog_at_half(self):
        # Li_2(1/2) = pi^2/12 - ln(2)^2/2
        want = math.pi**2 / 12 - math.log(2) ** 2 / 2
        ev = eval_polylog((2,), 0.5, 1e-10)
        assert abs(ev.value - want) <= 1e-10

    def test_log_squared_over_two(self):
        ev = eval_polylog((1, 1), 0.5, 1e-10)
        assert abs(ev.value - math.log(2) ** 2 / 2) <= 1e-10

    def test_zero_argument(self):
        assert eval_polylog((2, 1), 0.0).value == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_polylog((2,), 1.0)
        with pytest.raises(DomainError):
            eval_polylog((2,), -0.1)

    def test_unreachable_bound_is_refused_before_the_kernel(self, no_kernel):
        """(1^256) at z = 0.9999999 needs more terms than the constant cap zeta.MAX_N."""
        with pytest.raises(PrecisionUnreachable, match=f"at z=0.9999999 needs a horizon beyond {zeta.MAX_N}$"):
            eval_polylog((1,) * 256, 0.9999999)

    @pytest.mark.parametrize("k", [10, 30, 100])
    def test_deep_ones_within_their_bound_of_the_closed_form(self, k):
        """Li_(1^k)(z) = (-ln(1 - z))^k / k!.  The roundoff bound does not grow
        with depth, so deep indexes near z = 1 are certified, not refused."""
        ev = eval_polylog((1,) * k, 0.99)
        with mp.workdps(30):
            want = (-mp.log(1 - mp.mpf(0.99))) ** k / mp.factorial(k)
            assert abs(mp.mpf(ev.value) - want) <= ev.abs_error <= 1e-8

    def test_star_parts_are_refused_before_the_kernel(self, no_kernel):
        """(2, 1^12) has 13 parts, within the bound, and (2, 1^13) has 14: the
        combination is refused before the kernel of the first index runs."""
        zeta.clear_mzv_cache()
        comb = MzvCombination({(2,) + (1,) * 12: 1, (2,) + (1,) * 13: 1}, "star")
        with pytest.raises(DomainError, match="^star index of 14 parts is above the bound of 13 parts$"):
            eval_combination(comb)

    def test_cached_values_are_not_planned(self, monkeypatch):
        ev = eval_mzv((2, 3), "star", 1e-8)
        for name in ("_horizon", "star_to_strict", "_fixed_polylogs"):
            monkeypatch.setattr(zeta, name, None)
        assert eval_mzv((2, 3), "star", 1e-8) == ev

    def test_partial_sum_value(self):
        ev = eval_polylog((2,), 0.5, 1e-10)
        partial = sum(0.5**n / n**2 for n in range(1, 200))
        assert abs(ev.value - partial) <= 1e-10


class TestArborifiedPolylog:
    def test_single_y(self):
        ev = eval_arborified_polylog(tree_forest(leaf("y")), 0.5, 1e-10)
        assert abs(ev.value - math.log(2)) <= 1e-10

    def test_empty_forest(self):
        assert eval_arborified_polylog(Forest(), 0.5).value == 1.0

    def test_y_ladder(self):
        forest = tree_forest(b_plus("y", tree_forest(leaf("y"))))
        ev = eval_arborified_polylog(forest, 0.5, 1e-10)
        assert abs(ev.value - math.log(2) ** 2 / 2) <= 1e-10

    def test_rejects_non_semiconvergent(self):
        with pytest.raises(NotSemiconvergent):
            eval_arborified_polylog(tree_forest(leaf("x")), 0.5)

    @pytest.mark.parametrize(
        "forest,want",
        [
            (tree_forest(leaf("y")), math.log(2)),
            (tree_forest(b_plus("y", tree_forest(leaf("y")))), math.log(2) ** 2 / 2),
            (tree_forest(b_plus("x", tree_forest(leaf("y")))), math.pi**2 / 12 - math.log(2) ** 2 / 2),
            (tree_forest(leaf("y"), leaf("y")), math.log(2) ** 2),
        ],
        ids=["y", "y[y]", "x[y]", "y y"],
    )
    def test_series_oracle_closed_forms_at_half(self, forest, want):
        # ln 2, ln^2(2)/2, Li_2(1/2) = pi^2/12 - ln^2(2)/2 and ln^2(2)
        ev = brute_polylog_forest(forest, 0.5)
        assert abs(ev.value - want) <= 1e-15
        assert ev.abs_error <= 1e-12

    @pytest.mark.parametrize("vertices", [30, 100], ids=["30", "100"])
    def test_unreachable_bound_is_refused_before_the_kernel(self, no_kernel, vertices):
        """The y-ladder of n vertices flattens to the one word (1^n), which at
        z = 0.9999999 needs more terms than the constant cap zeta.MAX_N."""
        with pytest.raises(PrecisionUnreachable, match=f"at z=0.9999999 needs a horizon beyond {zeta.MAX_N}$"):
            eval_arborified_polylog(ladder("y" * vertices), 0.9999999)

    def test_deep_ladder_within_its_bound_of_the_closed_form(self):
        """The y-ladder of 100 vertices at z = 0.99 is Li_(1^100)(0.99) = (-ln 0.01)^100 / 100!."""
        ev = eval_arborified_polylog(ladder("y" * 100), 0.99)
        with mp.workdps(30):
            want = (-mp.log(1 - mp.mpf(0.99))) ** 100 / mp.factorial(100)
            assert abs(mp.mpf(ev.value) - want) <= ev.abs_error <= 1e-8

    @pytest.mark.parametrize("exponent, z", [(300, 1e-10), (300, 1e-14), (305, 1e-3), (300, 1e-300)])
    def test_bound_holds_below_the_normal_range(self, exponent, z):
        """10^-exponent Li_1(z): a product, or the product of a coefficient with
        a bound, that lands below 2^-1022 errs by up to 2^-1075, which the bound
        carries."""
        ev = eval_arborified_polylog(LinComb.of(tree_forest(leaf("y")), Fraction(1, 10**exponent)), z)
        with mp.workdps(40):
            want = -mp.log1p(-mp.mpf(z)) / mp.mpf(10) ** exponent
            assert abs(mp.mpf(ev.value) - want) <= ev.abs_error <= 1e-300

    @pytest.mark.parametrize("leaves", [171, 256])
    def test_coefficients_past_the_float_range_are_refused_before_the_kernel(self, no_kernel, leaves):
        """The forest of n y-leaves flattens to the word y^n with coefficient n!, past the float range from 171."""
        with pytest.raises(PrecisionUnreachable, match="certified error inf exceeds 1e-08"):
            eval_arborified_polylog(Forest([leaf("y")] * leaves), 0.5)

    def test_against_series_oracle(self):
        for forest in _semiconvergent_forests(4):
            via_reduction = eval_arborified_polylog(forest, 0.5, 1e-9)
            via_series = brute_polylog_forest(forest, 0.5)
            assert abs(via_reduction.value - via_series.value) <= via_reduction.abs_error + via_series.abs_error


def _semiconvergent_forests(max_vertices):
    return [
        forest
        for forest in forests_up_to(max_vertices, ("x", "y"), include_empty=False)
        if convergence_class(forest, Alphabet.XY).is_semiconvergent
    ]


@cache
def _exact_series(forest, terms):
    """Degrees 0..terms-1 of the power series of ``forest`` in exact arithmetic,
    as integers C_k and an exponent e with c_k = C_k / lcm(1, ..., terms-1)^e.

    Every vertex divides once by a degree below ``terms``, so each factor of
    lcm stays an integer: the same branched integration as the oracle, in ints."""
    cofactors = [0] + [math.lcm(*range(1, terms)) // k for k in range(1, terms)]
    one = ([1] + [0] * (terms - 1), 0)

    def times(a, b):
        (ca, ea), (cb, eb) = a, b
        return [sum(map(mul, ca[: k + 1], cb[k::-1])) for k in range(terms)], ea + eb

    def tree_series(tree):
        coeffs, e = one
        for child in tree.children:
            coeffs, e = times((coeffs, e), tree_series(child))
        if tree.decoration == "y":  # times 1/(1 - t), one degree up
            coeffs = [0] + list(accumulate(coeffs))[: terms - 1]
        return list(map(mul, coeffs, cofactors)), e + 1  # divided by the degree

    total = one
    for tree in forest.trees:
        total = times(total, tree_series(tree))
    return total


def _exact_truncation(forest, z, terms):
    """sum_(k < terms) c_k z^k as a Fraction, by Horner over z = p/q in ints."""
    coeffs, e = _exact_series(forest, terms)
    p, q = Fraction(z).as_integer_ratio()
    total = 0
    for k in range(terms - 1, -1, -1):
        total = total * p + coeffs[k] * q ** (terms - 1 - k)
    return Fraction(total, q ** (terms - 1) * math.lcm(*range(1, terms)) ** e)


class TestSeriesOracleBound:
    """``brute_polylog_forest``'s derived bound against exact arithmetic."""

    @pytest.mark.parametrize("z", [0.5, 0.9])
    def test_rounding_within_the_bound(self, monkeypatch, z):
        """Every semiconvergent forest of at most 3 vertices at 400 terms, and of
        4 vertices at 100, lies within its bound of the same truncated series."""
        for forest in _semiconvergent_forests(4):
            terms = 400 if forest.vertex_count <= 3 else 100
            monkeypatch.setattr(suites, "SERIES_TERMS", terms)
            ev = brute_polylog_forest(forest, z)
            assert abs(Fraction(ev.value) - _exact_truncation(forest, z, terms)) <= ev.abs_error, forest

    def test_tail_within_the_bound(self, monkeypatch):
        """At 40 terms and z = 1/2 the tail dominates the bound; 200 exact terms
        are within 2^-190 of the whole series."""
        monkeypatch.setattr(suites, "SERIES_TERMS", 40)
        for forest in _semiconvergent_forests(4):
            ev = brute_polylog_forest(forest, 0.5)
            assert abs(Fraction(ev.value) - _exact_truncation(forest, 0.5, 200)) <= ev.abs_error, forest

    def test_coefficients_below_their_majorant(self):
        """c_k <= (k + 1)^(V - 1), the majorant of the tail bound, on the degrees computed exactly."""
        terms = 200
        scale = math.lcm(*range(1, terms))
        for forest in _semiconvergent_forests(4):
            coeffs, e = _exact_series(forest, terms)
            for k, c in enumerate(coeffs):
                assert 0 <= c <= (k + 1) ** (forest.vertex_count - 1) * scale**e, (forest, k)

    def test_no_bound_below_the_normal_range(self):
        """Where the smallest intermediate could fall below 2^-1022 the bound is inf, not a relative count."""
        assert brute_polylog_forest(ladder("y" * 3), 0.01).abs_error == math.inf
        assert brute_polylog_forest(ladder("y" * 3), 0.5).abs_error < 1e-12
