import math

import mpmath as mp
import pytest

from arbozeta.catalog import forests_up_to
from arbozeta import zeta
from arbozeta.errors import DomainError, NotSemiconvergent, PrecisionUnreachable
from arbozeta.forest_algebra import convergence_class
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
        assert abs(brute_polylog_forest(forest, 0.5) - want) <= 1e-15

    @pytest.mark.parametrize("vertices", [30, 100], ids=["30", "100"])
    def test_unreachable_bound_is_refused_before_the_kernel(self, no_kernel, vertices):
        """The y-ladder of n vertices flattens to the one word (1^n), which at
        z = 0.9999999 needs more terms than the constant cap zeta.MAX_N."""
        with pytest.raises(PrecisionUnreachable, match=f"at z=0.9999999 needs a horizon beyond {zeta.MAX_N}$"):
            eval_arborified_polylog(ladder("y" * vertices), 0.9999999)

    def test_deep_ladder_within_its_bound_of_the_closed_form(self):
        """The y-ladder of 100 vertices at z = 0.99 is Li_(1^100)(0.99) = (-ln 0.01)^100 / 100!."""
        ev = eval_arborified_polylog(ladder("y" * 100), 0.99)
        want = (-mp.log(1 - mp.mpf(0.99))) ** 100 / mp.factorial(100)
        assert abs(mp.mpf(ev.value) - want) <= ev.abs_error <= 1e-8

    @pytest.mark.parametrize("leaves", [171, 256])
    def test_coefficients_past_the_float_range_are_refused_before_the_kernel(self, no_kernel, leaves):
        """The forest of n y-leaves flattens to the word y^n with coefficient n!, past the float range from 171."""
        with pytest.raises(PrecisionUnreachable, match="certified error inf exceeds 1e-08"):
            eval_arborified_polylog(Forest([leaf("y")] * leaves), 0.5)

    def test_against_series_oracle(self):
        for forest in forests_up_to(4, ("x", "y"), include_empty=False):
            if not convergence_class(forest, Alphabet.XY).is_semiconvergent:
                continue
            via_reduction = eval_arborified_polylog(forest, 0.5, 1e-9)
            via_series = brute_polylog_forest(forest, 0.5)
            assert abs(via_reduction.value - via_series) <= 1e-8
