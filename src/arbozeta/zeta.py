"""Numeric evaluation of (star) multiple zeta values, polylogarithms, and
exact reduction of arborified zeta values to combinations of them.

Multiple zeta values come from Hölder convolution at z = 1/2 (Borwein,
Bradley, Broadhurst and Lisoněk, "Special values of multiple polylogarithms",
Trans. AMS 353, 2001).  For the binary word w = binarise(s) of length n,

    zeta(w) = sum_{k=0..n} Li_{tau(w[:k])}(1/2) * Li_{w[k:]}(1/2),

where tau reverses a word and swaps x and y.  Every factor is a power series
in z, summed in fixed point at 2^-128 in Python ints up to a horizon N where
its tail, bounded analytically, is negligible; one innermost-first pass over
a word gives the values of all its suffixes.  Strict values are always
computed to the kernel's own floor (about 1e-15 relative, the rounding to
float) and cached, star values are sums of strict ones
(:func:`star_to_strict`), and the requested precision is only compared with
the certified bound at the end.

Every evaluation returns a value with a certified absolute error bound made
of the series tail, the fixed-point roundoff, the conversion to float and the
float arithmetic that combines the factors.

The polylog evaluators work in one order: plan, refuse, kernel, combine.  A
plan is the pair that :func:`_horizon` returns, a horizon and the
tail-plus-roundoff bound of each suffix depth.  All plans of a call are made
before any kernel runs, so a horizon past the fixed cap ``MAX_N``, or a
bound that the plans already put above the precision, is refused first; then
the kernel runs once per index and :func:`_combine` sums the terms.  Zeta
values need no plan phase: at z = 1/2 every index up to the weight bound
meets ``MZV_TAIL`` within 64 to 256 terms, far below ``MAX_N``, so
:func:`_holder` plans its two factors as it runs.  Only a star index of too
many parts must be refused before any kernel, and :func:`eval_combination`
does that first.

Roundoff of the fixed-point kernel.  With X = 2^P (P = 128) the kernel holds
floor(X z^m), floor(X / m^r) and the strict inner sums S_v(m) =
sum_{m > m_1 > ...} prod_i m_i^-v_i at scale X.  Every stored number lies
below its true value by less than a bound E counted in ulps (units of
2^-P), and every sum of products is exact until it is floored once:

- a table entry floor(X / m^r), built by nested floor division, has E < 1;
- a power has E < 2/(1 - z): each step floor(Z * floor(X z) / X) carries
  the error before it times z and adds less than 1 + z^(m-1) ulps, and
  at z = 1/2 every power is an exact shift;
- one level S_(p, v)(m) = floor(sum_{m' < m} T_p(m') S_v(m') / X) has
  E <= 1 + sum_{m'<m} (m'^-p E_v(m') + S_v(m')).

Let L = 1 + ln N >= H_N, the harmonic number.  A strict nested sum of d
levels over m_i < m, with every exponent >= 1, is at most the elementary
symmetric function e_d(1, 1/2, ..., 1/(m-1)) <= H_(m-1)^d / d!, so
S_v(m) <= L^d / d! for d = len(v), and the level at depth j adds
F_j <= 1 + N L^(j-1) / (j-1)! ulps of its own.  That error is itself carried
through every level above it as the weight of a nested sum, so by depth k it
is at most F_j L^(k-j) / (k-j)!.

The value of u = (r, v), k = len(u), is sum_m Z_m T_r(m) S_v(m) / X^3, one
correctly rounded int-to-float division.  Before that division it lies below
the truncated series by at most

    2/(1 - z) L^k/k!                        from the powers,
  + N L^(k-1)/(k-1)!                        from the tables of r,
  + sum_(j<k) F_j L^(k-j)/(k-j)!            from the levels,

ulps, and the last sum is at most N (2L)^(k-1)/(k-1)! + e N, by the
binomial theorem and sum_i L^i/i! <= e^L = e N.  That is
:func:`_roundoffs`, built by running products over k.  Whatever the depth,
each of the three quotients is at most e^(2L) = e^2 N^2, so the bound does
not grow like L^k: at N = 1,024 it stays below 1e-29 at every depth up to
the weight bound.

Tail of the series.  Of the inner parts v of u = (r, v), let ``ones`` equal 1.
An index tuple of S_v(m) is fixed by its entries at the parts p >= 2 and at
the ones, which are ``ones`` distinct integers below m, so by the lemma above
S_v(m) <= prod_(p >= 2) p/(p - 1) * e_ones(1, ..., 1/(m-1)), at most that
product times (1 + ln m)^ones / ones!: :func:`_tail_bound`'s majorant, whose
factor ones! leaves the ratio of its successive terms unchanged.
"""
from __future__ import annotations

import math
from itertools import accumulate
from operator import mul

from .errors import (
    DivergentIndex,
    DomainError,
    NonConvergent,
    NotSemiconvergent,
    PrecisionUnreachable,
    UnsupportedAlphabet,
)
from .lincomb import Coeff, LinComb, _as_comb
from .trees import Alphabet, Forest, _Record, _set
from .words import MAX_STAR_PARTS, Word, check_weight, debinarise

Composition = tuple[int, ...]

DEFAULT_PRECISION = 1e-8
MAX_N = 10**7  # the longest polylog horizon
FIRST_N = 64  # first polylog horizon tried; the horizon doubles from here
MZV_TAIL = 2.0**-64  # series tail allowed in each Hölder factor

P = 128  # the kernel's fixed point: integers scaled by 2^P
BLOCK = 4096  # horizons longer than this are walked in blocks of this many terms
_ONE = 1 << P
_SCALE3 = 1 << 3 * P  # scale of a sum of products of three fixed-point factors
_F64_U = 2.0**-53  # unit roundoff of float
_F64_TINY = 2.0**-1022  # the least normal float
_F64_ETA = 2.0**-1074  # the spacing of floats below the normal range, twice a rounding's error there
_FLOAT_OVERFLOW = 2**1024 - 2**970  # the least number that float() rounds past the largest float

# The kernel's memos, emptied by clear_mzv_cache.  Tables, powers, weights
# and levels are kept only for horizons of one block.
_TABLES: dict[tuple[int, int], list[int]] = {}  # (n, r): floor(2^P / m^r), m = 1..n
_ZPOWERS: dict[tuple[float, int], list[int]] = {}  # (z, n): floor(2^P z^m), m = 1..n
_WEIGHTS: dict[tuple[int, float, int], list[int]] = {}  # (r, z, n): power * table entry, m = 1..n
_LEVELS: dict[tuple[Composition, int], list[int]] = {}  # (v, n): S_v(m) at 2^P, m = 1..n
_SUMS: dict[tuple[Composition, float, int], int] = {}  # (u, z, n): see _fixed_polylogs


class MzvEval(_Record):
    """A numeric value with a certified absolute error bound."""

    __slots__ = _FIELDS = ("value", "abs_error")

    def __init__(self, value: float, abs_error: float):
        _set(self, "value", value)
        _set(self, "abs_error", abs_error)


class MzvCombination(_Record):
    """Exact rational combination of composition-indexed zeta values.

    The one check of flavors and zeta indexes: integer parts >= 1, a first
    part >= 2 and a weight of at most ``words.MAX_WEIGHT``.  Its ``terms``
    dict makes it unhashable.
    """

    __slots__ = _FIELDS = ("terms", "flavor")
    __hash__ = None

    def __init__(self, terms: dict[Composition, Coeff] | None = None, flavor: str = "strict"):
        if flavor not in ("strict", "star"):
            raise ValueError(f"unknown flavor {flavor!r}")
        terms = {} if terms is None else terms
        for index, coeff in terms.items():
            _validate_index(index)
            if not coeff:
                raise ValueError("zero coefficient stored in combination")
        _set(self, "terms", terms)
        _set(self, "flavor", flavor)

    def sorted_items(self) -> list[tuple[Composition, Coeff]]:
        return sorted(self.terms.items())

    def all_integer(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

    def __len__(self) -> int:
        return len(self.terms)


def _validate_parts(s: Composition):
    if any(not isinstance(p, int) or p < 1 for p in s):
        raise DivergentIndex(f"composition parts must be integers >= 1: {s}")
    check_weight(sum(s), "index")


def _validate_index(s: Composition):
    _validate_parts(s)
    if s and s[0] < 2:
        raise DivergentIndex(f"series diverges for first part {s[0]}")


def _check_precision(precision: float):
    if not (math.isfinite(precision) and precision > 0):
        raise DomainError(f"precision must be finite and positive, got {precision}")


def _require(err: float, precision: float, what: str):
    if err > precision:
        raise PrecisionUnreachable(f"{what}: certified error {err:g} exceeds {precision:g}")


def _gamma(m: int, u: float) -> float:
    """Bound on the relative error of m successive roundings of unit roundoff u."""
    return m * u / (1.0 - m * u)


# -- the power-series kernel --------------------------------------------------------

def _tail_bound(inner: Composition, z: float, n: int) -> float:
    """Bound on sum_{m > n} z^m A(m) / m, A the strict nested sum over ``inner``.

    A(m) is at most the product over inner parts p >= 2 of zeta(p) <= p/(p-1)
    times (1 + ln m)^ones / ones!, for the ``ones`` parts equal to 1 (module
    docstring).  From m = n+1 on the terms of that majorant shrink at least
    by ``ratio``, so a geometric series bounds the tail.
    """
    ones = sum(1 for p in inner if p == 1)
    log_end = 1.0 + math.log(n + 1)
    ratio = z * math.exp(ones / ((n + 1) * log_end))
    if ratio >= 1.0:
        return math.inf
    log_tail = (
        (n + 1) * math.log(z)
        - math.log(n + 1)
        + ones * math.log(log_end)
        - math.lgamma(ones + 1)
        + sum(math.log(p / (p - 1)) for p in inner if p > 1)
        - math.log1p(-ratio)
    )
    try:
        return math.exp(log_tail)
    except OverflowError:
        return math.inf


def _horizon(s: Composition, z: float, tail: float) -> tuple[int, list[float]]:
    """The plan of Li_s(z): a horizon and the tail-plus-roundoff bound of each suffix depth.

    The horizon is the first FIRST_N * 2^k, at most MAX_N, whose tail bound
    meets ``tail``.  The composition (1, s[1:]) has the largest tail of all
    suffixes of binarise(s), so that bound plus the roundoff bounds each depth.
    """
    n = FIRST_N
    while (tail_bound := _tail_bound(s[1:], z, n)) > tail:
        if n >= MAX_N:
            raise PrecisionUnreachable(f"polylog {s} at z={z} needs a horizon beyond {MAX_N}")
        n = min(2 * n, MAX_N)
    return n, [tail_bound + roundoff for roundoff in _roundoffs(len(s), z, n)]


def _roundoffs(depth: int, z: float, n: int) -> list[float]:
    """Bounds on the fixed-point error of one truncated Li_u(z), len(u) = 0..``depth`` (module docstring).

    Each comes from running products over k: no power or factorial is formed,
    and a product past the float range is inf, not an OverflowError.  Entry 0
    is never read, since no suffix is empty.
    """
    log = 1.0 + math.log(n)
    powers = 2.0 / (1.0 - z)
    nested = 1.0  # L^k / k!
    tables = carried = 0.0  # L^(k-1) / (k-1)! and (2L)^(k-1) / (k-1)!, none at k = 0
    out = []
    for k in range(depth + 1):
        out.append((powers * nested + n * (tables + carried) + math.e * n) * 2.0**-P)
        tables, carried = nested, (carried * 2.0 * log / k if k else 1.0)
        nested *= log / (k + 1)
    return out


def _suffixes(s: Composition) -> list[Composition]:
    """The compositions of the nonempty suffixes of binarise(s), longest first.

    A suffix that starts inside the x-run of part j is (r, s[j+1:]), r <= s[j].
    """
    return [(r,) + s[j + 1:] for j in range(len(s)) for r in range(s[j], 0, -1)]


def _fixed_polylogs(suffixes: list[Composition], z: float, n: int) -> dict[Composition, int]:
    """2^(3P) times Li_u(z) truncated at m <= n, for every u of ``suffixes``, in order.

    ``suffixes`` are suffixes of binarise(s) for s, the first of them, as
    :func:`_suffixes` lists them, longest first.  Each summand
    z^m m^-r S_v(m) of u = (r, v) is an exact product of three fixed-point
    factors, each one floor below its true value: the power floor(2^P z^m),
    the table entry floor(2^P / m^r) and the strict inner sum S_v(m) at 2^P.
    The first two are multiplied once per (r, z, n) into a weight table, so a
    value is one dot product.  One innermost-first pass over s builds the
    levels S_v down to the longest suffix asked for, each from the one below
    by an exact cumulative sum floored once per entry.  The horizon is walked
    in blocks of BLOCK terms, carrying the exact cumulative sums from block to
    block, so a block walk floors exactly as one pass would.  Sums are
    memoised per (u, z, n), and tables, powers, weights and levels for
    horizons of one block.
    """
    s = suffixes[0]
    sums = {u: _SUMS.get((u, z, n)) for u in suffixes}
    todo = {u: 0 for u, total in sums.items() if total is None}
    if todo:
        first = len(s) - max(map(len, todo))  # the outermost part a missing suffix starts in
        keep = n <= BLOCK
        zint = int(math.ldexp(z, P))
        zlast = _ONE  # floor(2^P z^(lo-1))
        carries = [0] * len(s)  # the exact cumulative sum below each level, at 2^(2P)
        for lo in range(1, n + 1, BLOCK):
            ms = range(lo, min(lo + BLOCK, n + 1))
            tables = [[_ONE] * len(ms)]
            for r in range(1, max(s) + 1):
                tables.append(_kept(_TABLES, (n, r), keep, lambda: [t // m for t, m in zip(tables[-1], ms)]))
            zpow = _kept(_ZPOWERS, (z, n), keep, lambda: _powers(zint, zlast, len(ms)))
            zlast = zpow[-1]
            level = tables[0]  # S_() = 1
            for j in range(len(s) - 1, first - 1, -1):
                for r in range(1, s[j] + 1):
                    u = (r,) + s[j + 1:]
                    if u in todo:
                        weights = _kept(_WEIGHTS, (r, z, n), keep, lambda: list(map(mul, tables[r], zpow)))
                        todo[u] += sum(map(mul, weights, level))
                if j > first:
                    key = (s[j:], n)
                    below = level
                    level = _LEVELS.get(key)
                    if level is None:
                        running = list(accumulate(map(mul, tables[s[j]], below), initial=carries[j]))
                        carries[j] = running.pop()
                        level = [c >> P for c in running]
                        if keep:
                            _LEVELS[key] = level
        sums.update(todo)
        _SUMS.update(((u, z, n), total) for u, total in todo.items())
    return sums


def _powers(zint: int, last: int, count: int) -> list[int]:
    """The ``count`` powers after ``last``, each floor(power * zint / 2^P)."""
    out = []
    for _ in range(count):
        last = last * zint >> P
        out.append(last)
    return out


def _kept(cache: dict, key, keep: bool, build):
    """cache[key], built on a miss and stored only when ``keep``."""
    value = cache.get(key)
    if value is None:
        value = build()
        if keep:
            cache[key] = value
    return value


def _suffix_polylogs(suffixes: list[Composition], z: float, plan: tuple[int, list[float]]) -> list[tuple[float, float]]:
    """(value, error bound) of Li_u(z) for every u of ``suffixes`` (see :func:`_fixed_polylogs`), in order.

    Each value is one correctly rounded division of the fixed-point sum at
    the plan's horizon; its bound adds the plan's bound for its depth and the
    rounding to float.
    """
    n, bounds = plan
    values = [(len(u), total / _SCALE3) for u, total in _fixed_polylogs(suffixes, z, n).items()]
    return [(value, bounds[depth] + _F64_U * value) for depth, value in values]


# -- multiple zeta values ---------------------------------------------------------------

def _dual(s: Composition) -> Composition:
    """The composition of tau(binarise(s)): the word reversed, x and y swapped.

    Part p, read backwards, gives x y^(p-1); each y ends a dual part one longer than the x-run before it.
    """
    dual, run = [], 0
    for p in reversed(s):
        if p == 1:
            run += 1
        else:
            dual += [run + 2] + [1] * (p - 2)
            run = 0
    return tuple(dual)


def _holder(s: Composition) -> MzvEval:
    """Strict zeta(s) by Hölder convolution at z = 1/2, to the kernel's floor.

    Suffixes of tau(w) are the tau-images of prefixes of w, so two kernel
    passes, over s and over its dual, give every factor: entry p of each
    list is the suffix that starts at letter p, the empty one last.
    Products propagate |a| db + |b| da + da db, and the final float sum of
    n + 1 products adds gamma_(n+2).
    """
    n = sum(s)
    after, before = [
        _suffix_polylogs(_suffixes(t), 0.5, _horizon(t, 0.5, MZV_TAIL)) + [(1.0, 0.0)] for t in (s, _dual(s))
    ]
    total = size = err = 0.0
    for k in range(n + 1):
        (a, da), (b, db) = before[n - k], after[k]
        total += a * b
        size += abs(a * b)
        err += abs(a) * db + abs(b) * da + da * db
    return MzvEval(total, err + _gamma(n + 2, _F64_U) * size)


def _combine(terms) -> tuple[float, float]:
    """Float sum of coeff * ev.value over (coeff, ev) pairs, with its bound.

    A summand passes at most len(terms) - 1 additions, plus the conversion of
    its coefficient and the product when the coefficient is not +-1.  That
    count is relative.  Below the normal range a rounding errs by up to
    2^-1075 instead, so a summand whose coefficient is not +-1 also adds twice
    that for its coefficient (times |value| + abs_error), its product and the
    product |c| abs_error of its bound; in the normal range the addition is
    absorbed.  A sum that lands below the normal range is exact.
    Coefficients must lie below the float range (:func:`_coefficient_size`).
    """
    unit, scaled = _gamma(len(terms) - 1, _F64_U), _gamma(len(terms) + 1, _F64_U)
    total = err = 0.0
    for coeff, ev in terms:
        c = float(coeff)
        x = c * ev.value
        total += x
        if abs(coeff) == 1:
            err += ev.abs_error + unit * abs(x)
        else:
            err += abs(c) * ev.abs_error + scaled * abs(x)
            if ev.value or ev.abs_error:
                err += _F64_ETA * (abs(ev.value) + ev.abs_error + 2.0)
    return total, err


def _coefficient_size(coeffs, precision: float, what: str) -> float:
    """The sum of |coeff| as a float, 0 or a normal float.

    Coefficients that sum past the float range have an infinite bound, and a
    nonzero sum below the normal range, where every coefficient rounds to a
    float with no relative precision left, is refused.
    """
    size = sum(map(abs, coeffs))
    if size >= _FLOAT_OVERFLOW:
        _require(math.inf, precision, what)
    if 0 < size < _F64_TINY:
        raise DomainError(f"{what}: coefficients sum below the least normal float, {_F64_TINY:g}")
    return float(size)


_MZV_CACHE: dict[tuple[str, Composition], MzvEval] = {}


def _mzv(flavor: str, s: Composition) -> MzvEval:
    """zeta(s) or zeta*(s) at the kernel's floor, from the cache or else computed and cached."""
    ev = _MZV_CACHE.get((flavor, s))
    if ev is None:
        if flavor == "strict":
            ev = _holder(s)
        else:
            ev = MzvEval(*_combine([(c, _mzv("strict", t)) for t, c in star_to_strict(s).sorted_items()]))
        _MZV_CACHE[(flavor, s)] = ev
    return ev


def eval_mzv(s, flavor: str = "strict", precision: float = DEFAULT_PRECISION) -> MzvEval:
    """Multiple zeta value (strict nesting) or its star variant (non-strict)."""
    return eval_combination(MzvCombination({tuple(s): 1}, flavor), precision)


def clear_mzv_cache():
    """Empty the MZV cache and the kernel's tables and memos."""
    for memo in (_MZV_CACHE, _TABLES, _ZPOWERS, _WEIGHTS, _LEVELS, _SUMS):
        memo.clear()


# -- combinations ----------------------------------------------------------------

def words_to_combination(words: LinComb[Word], flavor: str) -> MzvCombination:
    """Zeta combination of a word combination, debinarising binary words.

    Words from both alphabets can land on one index, so coefficients are
    summed; :class:`MzvCombination` refuses a divergent index.
    """
    terms: dict[Composition, Coeff] = {}
    for w, coeff in words.items():
        if w and w.alphabet is Alphabet.XY:
            w = debinarise(w)
        terms[w.letters] = terms.get(w.letters, 0) + coeff
    return MzvCombination({index: c for index, c in terms.items() if c}, flavor)


# Arborified flavor -> (weight lambda of its flattening, flavor of the zeta values it reduces to).
FLAVORS = {"stuffle": (1, "strict"), "star": (-1, "star"), "shuffle": (0, "strict")}


def reduce_azv(comb: LinComb[Forest] | Forest, flavor: str) -> MzvCombination:
    """Exact reduction of an arborified zeta value to a zeta combination.

    Flavors: ``stuffle`` and ``star`` flatten with weights +1 and -1 over
    positive-integer forests; ``shuffle`` flattens a binary forest with weight
    0 and lands on compositions through debinarisation.  The input combination
    is canonicalized first, so divergent basis forests are admissible as long
    as they cancel.  A forest over another alphabet than its flavor's is
    refused with ``UnsupportedAlphabet``.
    """
    from .forest_algebra import ConvergenceClass, convergence_class, flatten

    comb = _as_comb(comb)
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if flavor == "shuffle":
        required, alphabet = ConvergenceClass.CONV_XY, Alphabet.XY
        needs = "{x,y}; binarize-tree maps a positive-integer forest there"
    else:
        required, alphabet = ConvergenceClass.CONV_POSINT, Alphabet.POSINT
        needs = "the positive integers; the shuffle flavor reduces forests over {x,y}"
    for forest in comb:
        if forest.alphabet not in (None, alphabet):
            raise UnsupportedAlphabet(f"the {flavor} flavor reduces forests over {needs}")
        if convergence_class(forest, alphabet) is not required:
            raise NonConvergent(f"forest {forest!r} is not convergent for {flavor}")
    lam, mzv_flavor = FLAVORS[flavor]
    result = words_to_combination(flatten(comb, lam), mzv_flavor)
    if comb.all_integer() and not result.all_integer():
        raise ArithmeticError("integer input reduced to non-integer coefficients")
    return result


def eval_combination(comb: MzvCombination, precision: float = DEFAULT_PRECISION) -> MzvEval:
    """Sum of coeff * zeta(index), each term at the kernel's floor.

    A star index of too many parts, or coefficients whose sum is outside the
    normal float range, are refused before any kernel runs.
    """
    _check_precision(precision)
    items = comb.sorted_items()
    _coefficient_size(comb.terms.values(), precision, "combination")
    if comb.flavor == "star":
        for index, _ in items:
            _check_star_parts(index)
    terms = [(coeff, _mzv(comb.flavor, index) if index else MzvEval(1.0, 0.0)) for index, coeff in items]
    total, err = _combine(terms)
    _require(err, precision, "combination")
    return MzvEval(total, err)


def azv(forest_or_comb, flavor: str, precision: float = DEFAULT_PRECISION) -> MzvEval:
    """Arborified zeta value: reduce, then evaluate."""
    return eval_combination(reduce_azv(forest_or_comb, flavor), precision)


def _check_star_parts(s: Composition):
    if len(s) > MAX_STAR_PARTS:
        raise DomainError(f"star index of {len(s)} parts is above the bound of {MAX_STAR_PARTS} parts")


def star_to_strict(s) -> MzvCombination:
    """Star value as the sum of strict values over all adjacent-part merges.

    An index of more than ``words.MAX_STAR_PARTS`` parts is refused before any merge.
    """
    s = tuple(s)
    _validate_index(s)
    _check_star_parts(s)
    if not s:
        return MzvCombination({(): 1}, "strict")
    terms: dict[Composition, Coeff] = {}
    for mask in range(2 ** (len(s) - 1)):
        parts = [s[0]]
        for i in range(1, len(s)):
            if mask >> (i - 1) & 1:
                parts[-1] += s[i]
            else:
                parts.append(s[i])
        index = tuple(parts)
        terms[index] = terms.get(index, 0) + 1
    return MzvCombination(terms, "strict")


# -- polylogarithms ----------------------------------------------------------------

def _check_polylog_args(z: float, precision: float):
    if not 0.0 <= z < 1.0:
        raise DomainError(f"polylog series needs 0 <= z < 1, got {z}")
    _check_precision(precision)


def _eval_polylogs(terms: list[tuple[Coeff, Composition]], z: float, precision: float, what: str) -> MzvEval:
    """Sum of coeff * Li_s(z) over (coeff, s) pairs: plan, refuse, kernel, combine.

    The tails take at most half the budget.  The planned bounds, summed in
    _combine's order and each below its final counterpart, are a float lower
    bound of the final error.
    """
    size = _coefficient_size((coeff for coeff, _ in terms), precision, what)
    plans = [_horizon(s, z, precision / (2.0 * size)) if s and z else None for _, s in terms]
    planned = 0.0
    for (coeff, s), plan in zip(terms, plans):
        planned += abs(float(coeff)) * plan[1][len(s)] if plan else 0.0
    _require(planned, precision, what)
    total, err = _combine([
        (coeff, MzvEval(*_suffix_polylogs([s], z, plan)[0]) if plan else MzvEval(0.0 if s else 1.0, 0.0))
        for (coeff, s), plan in zip(terms, plans)
    ])
    _require(err, precision, what)
    return MzvEval(total, err)


def eval_polylog(s, z: float, precision: float = DEFAULT_PRECISION) -> MzvEval:
    """Single-variable multiple polylogarithm via its power series, 0 <= z < 1."""
    s = tuple(s)
    _validate_parts(s)
    _check_polylog_args(z, precision)
    return _eval_polylogs([(1, s)], z, precision, f"polylog {s} at z={z}")


def eval_arborified_polylog(forest_or_comb, z: float, precision: float = DEFAULT_PRECISION) -> MzvEval:
    """Arborified polylogarithm of a semiconvergent binary forest."""
    from .forest_algebra import convergence_class, flatten

    _check_polylog_args(z, precision)
    comb = _as_comb(forest_or_comb)
    for forest in comb:
        if not convergence_class(forest, Alphabet.XY).is_semiconvergent:
            raise NotSemiconvergent(f"forest {forest!r} is not semiconvergent")
    terms = [(coeff, debinarise(w).letters) for w, coeff in flatten(comb, 0).sorted_items()]
    return _eval_polylogs(terms, z, precision, f"arborified polylog at z={z}")
