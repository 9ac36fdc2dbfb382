"""Numeric evaluation of (star) multiple zeta values, polylogarithms, and
exact reduction of arborified zeta values to combinations of them.

Multiple zeta values come from Hölder convolution at z = 1/2 (Borwein,
Bradley, Broadhurst and Lisoněk, "Special values of multiple polylogarithms",
Trans. AMS 353, 2001).  For the binary word w = binarise(s) of length n,

    zeta(w) = sum_{k=0..n} Li_{tau(w[:k])}(1/2) * Li_{w[k:]}(1/2),

where tau reverses a word and swaps x and y.  Every factor is a power series
in z summed in long double up to a horizon N where its tail, bounded
analytically, is negligible; one innermost-first pass over a word gives the
values of all its suffixes.  Strict values are always computed to the
kernel's own floor (about 1e-15 relative) and cached, star values are sums of
strict ones (:func:`star_to_strict`), and the requested precision is only
compared with the certified bound at the end.

Every evaluation returns a value with a certified absolute error bound made
of the series tail, the roundoff of the long-double pass, the conversion to
float and the float arithmetic that combines the factors.

numpy is imported on the kernel's first call, not with this module, so the
exact reduction (:func:`reduce_azv`) and the argument checks run without it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cache

from .errors import (
    DivergentIndex,
    DomainError,
    NonConvergent,
    NotSemiconvergent,
    PrecisionUnreachable,
)
from .forest_algebra import ConvergenceClass, convergence_class, flatten
from .lincomb import Coeff, LinComb, _as_comb
from .trees import Alphabet, Forest
from .words import Word, binarise, debinarise, is_semiconvergent_word

Composition = tuple[int, ...]

DEFAULT_PRECISION = 1e-8
DEFAULT_MAX_N = 10**7
FIRST_N = 64  # first polylog horizon tried; the horizon doubles from here
MZV_TAIL = 2.0**-64  # series tail allowed in each Hölder factor

_F64_U = 2.0**-53  # unit roundoff of float


@cache
def _long_double():
    """numpy and the unit roundoff of its long double (round to nearest), on first use."""
    import numpy as np

    return np, float(np.finfo(np.longdouble).eps) / 2


def summation_cap(max_n: int | None = None) -> int:
    """Largest polylog horizon allowed: ``max_n``, else ``ARBOZETA_MAX_N``."""
    if max_n is None:
        env = os.environ.get("ARBOZETA_MAX_N")
        max_n = int(env) if env else DEFAULT_MAX_N
    if max_n < 1:
        raise DomainError(f"summation cap must be positive, got {max_n}")
    return max_n


@dataclass(frozen=True)
class MzvEval:
    """A numeric value with a certified absolute error bound."""

    value: float
    abs_error: float
    index: Composition = ()
    flavor: str = "strict"


@dataclass(frozen=True)
class PolylogEval:
    value: float
    abs_error: float
    argument: float
    index: Composition = ()


@dataclass(frozen=True)
class MzvCombination:
    """Exact rational combination of composition-indexed zeta values."""

    terms: dict[Composition, Coeff] = field(default_factory=dict)
    flavor: str = "strict"

    def __post_init__(self):
        for index, coeff in self.terms.items():
            if index and index[0] < 2:
                raise NonConvergent(f"divergent index {index} in combination")
            if not coeff:
                raise ValueError("zero coefficient stored in combination")

    def sorted_items(self) -> list[tuple[Composition, Coeff]]:
        return sorted(self.terms.items())

    def all_integer(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

    def __len__(self) -> int:
        return len(self.terms)


def _validate_index(s: Composition, flavor: str):
    if flavor not in ("strict", "star"):
        raise ValueError(f"unknown flavor {flavor!r}")
    if any(not isinstance(p, int) or p < 1 for p in s):
        raise DivergentIndex(f"composition parts must be integers >= 1: {s}")
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

def _tail_bound(first: int, inner: Composition, z: float, n: int) -> float:
    """Bound on sum_{m > n} z^m m^-first A(m), A the strict nested sum over ``inner``.

    A(m) is at most the product over inner parts p of zeta(p) <= p/(p-1) for
    p >= 2 and of H_(m-1) <= 1 + ln m for p = 1.  From m = n+1 on the terms of
    that majorant shrink at least by ``ratio``, so a geometric series bounds
    the tail.
    """
    ones = sum(1 for p in inner if p == 1)
    log_end = 1.0 + math.log(n + 1)
    ratio = z * math.exp(ones / ((n + 1) * log_end))
    if ratio >= 1.0:
        return math.inf
    log_tail = (
        (n + 1) * math.log(z)
        - first * math.log(n + 1)
        + ones * math.log(log_end)
        + sum(math.log(p / (p - 1)) for p in inner if p > 1)
        - math.log1p(-ratio)
    )
    return math.exp(log_tail)


def _suffix_polylogs(
    s: Composition, z: float, tail: float, cap: int
) -> list[tuple[float, float]]:
    """(value, error bound) of Li_u(z) for every nonempty suffix u of binarise(s).

    Entry p is the suffix that starts at letter p.  One innermost-first pass
    builds the strict inner sums A_j(m); a suffix that starts inside the x-run
    of part j differs from the one at the run's start only in its top
    exponent, so it costs one dot product with A_j.  The composition
    (1, s[1:]) has the largest tail of all suffixes, so it sets the horizon.
    """
    n = min(FIRST_N, cap)
    while (tail_bound := _tail_bound(1, s[1:], z, n)) > tail:
        if n >= cap:
            raise PrecisionUnreachable(f"polylog {s} at z={z} needs a horizon beyond {cap}")
        n = min(2 * n, cap)
    np, ld_u = _long_double()
    inv = 1 / np.arange(1, n + 1, dtype=np.longdouble)
    powers = [None, inv]  # powers[r][m-1] = m^-r
    for _ in range(1, max(s)):
        powers.append(powers[-1] * inv)
    zpow = np.cumprod(np.full(n, z, dtype=np.longdouble))
    # Every summand passes at most sum(s) roundings in its powers, n - 1 in
    # z^m, n - 1 in each cumulative sum and in the final sum, and one per
    # product: sum(s) + (len(s) + 1) * n in all; 4 more cover second-order terms.
    rel = _gamma(sum(s) + (len(s) + 1) * n + 4, ld_u) + _F64_U
    values = [0.0] * sum(s)
    inner = np.ones(n, dtype=np.longdouble)
    start = sum(s)
    for j in range(len(s) - 1, -1, -1):
        start -= s[j]
        weighted = zpow * inner
        for r in range(1, s[j] + 1):
            values[start + s[j] - r] = float((powers[r] * weighted).sum())
        if j:
            inner = np.concatenate(([0], np.cumsum(powers[s[j]] * inner)[:-1]))
    return [(v, tail_bound + rel * abs(v)) for v in values]


# -- multiple zeta values ---------------------------------------------------------------

def _dual(s: Composition) -> Composition:
    """The composition of tau(binarise(s)): the word reversed, x and y swapped."""
    swap = {"x": "y", "y": "x"}
    return debinarise(Word(tuple(swap[c] for c in reversed(binarise(s).letters)))).letters


def _holder(s: Composition, cap: int) -> MzvEval:
    """Strict zeta(s) by Hölder convolution at z = 1/2, to the kernel's floor.

    Suffixes of tau(w) are the tau-images of prefixes of w, so two kernel
    passes give every factor.  Products propagate |a| db + |b| da + da db, and
    the final float sum of n + 1 products adds gamma_(n+2).
    """
    n = sum(s)
    after = _suffix_polylogs(s, 0.5, MZV_TAIL, cap) + [(1.0, 0.0)]
    before = _suffix_polylogs(_dual(s), 0.5, MZV_TAIL, cap) + [(1.0, 0.0)]
    total = size = err = 0.0
    for k in range(n + 1):
        (a, da), (b, db) = before[n - k], after[k]
        total += a * b
        size += abs(a * b)
        err += abs(a) * db + abs(b) * da + da * db
    return MzvEval(total, err + _gamma(n + 2, _F64_U) * size, s, "strict")


def _combine(terms) -> tuple[float, float]:
    """Float sum of coeff * ev.value over (coeff, ev) pairs, with its bound.

    A summand passes at most len(terms) - 1 additions, plus the conversion of
    its coefficient and the product when the coefficient is not +-1.
    """
    m = len(terms)
    total = err = 0.0
    for coeff, ev in terms:
        c = float(coeff)
        x = c * ev.value
        total += x
        err += abs(c) * ev.abs_error + _gamma(m - 1 if abs(coeff) == 1 else m + 1, _F64_U) * abs(x)
    return total, err


_MZV_CACHE: dict[tuple[str, Composition], MzvEval] = {}


def _mzv(s: Composition, flavor: str, cap: int) -> MzvEval:
    """zeta(s) or zeta*(s) at the kernel's floor, through the cache."""
    key = (flavor, s)
    ev = _MZV_CACHE.get(key)
    if ev is None:
        if flavor == "strict":
            ev = _holder(s, cap)
        else:
            merges = star_to_strict(s).sorted_items()
            total, err = _combine([(c, _mzv(t, "strict", cap)) for t, c in merges])
            ev = MzvEval(total, err, s, "star")
        _MZV_CACHE[key] = ev
    return ev


def eval_mzv(
    s,
    flavor: str = "strict",
    precision: float = DEFAULT_PRECISION,
    max_n: int | None = None,
) -> MzvEval:
    """Multiple zeta value (strict nesting) or its star variant (non-strict)."""
    s = tuple(s)
    _validate_index(s, flavor)
    _check_precision(precision)
    if not s:
        return MzvEval(1.0, 0.0, s, flavor)
    ev = _mzv(s, flavor, summation_cap(max_n))
    _require(ev.abs_error, precision, f"{flavor} {s}")
    return ev


def clear_mzv_cache():
    _MZV_CACHE.clear()


# -- combinations ----------------------------------------------------------------

def words_to_combination(words: LinComb[Word], flavor: str) -> MzvCombination:
    """Zeta combination of a word combination, debinarising binary words.

    Every word must index a convergent series, also one whose terms cancel.
    """
    terms: dict[Composition, Coeff] = {}
    for w, coeff in words.items():
        if w and w.alphabet is Alphabet.XY:
            w = debinarise(w)
        index: Composition = w.letters
        if index and index[0] < 2:
            raise NonConvergent(f"divergent word {index}")
        terms[index] = terms.get(index, 0) + coeff
    return MzvCombination({index: c for index, c in terms.items() if c}, flavor)


def reduce_azv(comb: LinComb[Forest] | Forest, flavor: str) -> MzvCombination:
    """Exact reduction of an arborified zeta value to a zeta combination.

    Flavors: ``stuffle`` and ``star`` flatten with weights +1 and -1 over
    positive-integer forests; ``shuffle`` flattens a binary forest with weight
    0 and lands on compositions through debinarisation.  The input combination
    is canonicalized first, so divergent basis forests are admissible as long
    as they cancel.
    """
    comb = _as_comb(comb)
    if flavor not in ("stuffle", "star", "shuffle"):
        raise ValueError(f"unknown flavor {flavor!r}")
    required = ConvergenceClass.CONV_XY if flavor == "shuffle" else ConvergenceClass.CONV_POSINT
    alphabet = Alphabet.XY if flavor == "shuffle" else Alphabet.POSINT
    for forest in comb:
        if convergence_class(forest, alphabet) is not required:
            raise NonConvergent(f"forest {forest!r} is not convergent for {flavor}")
    lam = {"stuffle": 1, "star": -1, "shuffle": 0}[flavor]
    result = words_to_combination(flatten(comb, lam), "star" if flavor == "star" else "strict")
    if comb.all_integer() and not result.all_integer():
        raise ArithmeticError("integer input reduced to non-integer coefficients")
    return result


def eval_combination(
    comb: MzvCombination,
    precision: float = DEFAULT_PRECISION,
    max_n: int | None = None,
) -> MzvEval:
    """Sum of coeff * zeta(index), each term at the kernel's floor."""
    _check_precision(precision)
    cap = summation_cap(max_n)
    terms = []
    for index, coeff in comb.sorted_items():
        _validate_index(index, comb.flavor)
        terms.append((coeff, _mzv(index, comb.flavor, cap) if index else MzvEval(1.0, 0.0)))
    total, err = _combine(terms)
    _require(err, precision, "combination")
    return MzvEval(total, err, (), comb.flavor)


def azv(
    forest_or_comb,
    flavor: str,
    precision: float = DEFAULT_PRECISION,
    max_n: int | None = None,
) -> MzvEval:
    """Arborified zeta value: reduce, then evaluate."""
    return eval_combination(reduce_azv(forest_or_comb, flavor), precision, max_n)


def _falling(p: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= p - i
    return out


def _integral_tail(b: int, p: int, n: int) -> float:
    """Integral from n to infinity of x^(-b) ln(x)^p dx, exact, for b > 1."""
    ln = math.log(n)
    return sum(
        _falling(p, j) / (b - 1) ** (j + 1) * n ** (1 - b) * ln ** (p - j) for j in range(p + 1)
    )


def _em_tail_upper(b: int, p: int, n: int) -> float:
    """Upper bound on sum_{m >= n} m^(-b) ln(m)^p, b > 1, by Euler-Maclaurin."""
    ln = math.log(n)
    est = _integral_tail(b, p, n) + 0.5 * n ** (-b) * ln**p
    est -= n ** (-b - 1) * (p * ln ** (p - 1) - b * ln**p) / 12.0
    err = (
        b * (b + 1) * _integral_tail(b + 2, p, n)
        + (p * (2 * b + 1) * _integral_tail(b + 2, p - 1, n) if p else 0.0)
        + (p * (p - 1) * _integral_tail(b + 2, p - 2, n) if p >= 2 else 0.0)
    ) / 12.0
    return abs(est) + err


def brute_force_azv(forest: Forest, horizon: int, flavor: str = "stuffle") -> MzvEval:
    """Direct nested summation over the tree structure, truncated at ``horizon``.

    Child variables run strictly below (stuffle) or up to (star) their parent.
    The coarse tail bound majorizes the inner levels by harmonic-log growth;
    this is the desk-scale oracle against the reduction pipeline, so it never
    touches the flattening machinery.
    """
    if flavor not in ("stuffle", "star"):
        raise ValueError(f"unknown flavor {flavor!r}")
    star = flavor == "star"
    np, _ = _long_double()
    ns = np.arange(1, horizon + 1, dtype=np.longdouble)

    def tree_array(tree):
        out = ns ** (-tree.decoration)
        for child in tree.children:
            prefix = np.cumsum(tree_array(child))
            if not star:
                prefix = np.concatenate((np.zeros(1, dtype=np.longdouble), prefix[:-1]))
            out = out * prefix
        return out

    def log_tail(exponent: int, vertices: int, start: int) -> float:
        # sum_{n >= start} n^-exponent (1+ln n)^(vertices-1), via binomial expansion
        p = vertices - 1
        total = 0.0
        for j in range(p + 1):
            total += math.comb(p, j) * _em_tail_upper(exponent, j, start)
        return total

    values = []
    tail_bounds = []
    full_bounds = []
    for tree in forest.trees:
        arr = tree_array(tree)
        values.append(float(arr.sum()))
        tail_bounds.append(log_tail(tree.decoration, tree.vertex_count, horizon + 1))
        full_bounds.append(1.0 + log_tail(tree.decoration, tree.vertex_count, 2))
    value = math.prod(values)
    err = 0.0
    for i, tail in enumerate(tail_bounds):
        err += tail * math.prod(
            full_bounds[j] for j in range(len(values)) if j != i
        )
    return MzvEval(value, err, (), "star" if star else "strict")


def star_to_strict(s) -> MzvCombination:
    """Star value as the sum of strict values over all adjacent-part merges."""
    s = tuple(s)
    _validate_index(s, "star")
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


def _polylog(s: Composition, z: float, tail: float, cap: int) -> PolylogEval:
    if not s:
        return PolylogEval(1.0, 0.0, z, s)
    if z == 0.0:
        return PolylogEval(0.0, 0.0, z, s)
    value, err = _suffix_polylogs(s, z, tail, cap)[0]
    return PolylogEval(value, err, z, s)


def eval_polylog(
    s,
    z: float,
    precision: float = DEFAULT_PRECISION,
    max_n: int | None = None,
) -> PolylogEval:
    """Single-variable multiple polylogarithm via its power series, 0 <= z < 1."""
    s = tuple(s)
    if any(not isinstance(p, int) or p < 1 for p in s):
        raise DivergentIndex(f"composition parts must be integers >= 1: {s}")
    _check_polylog_args(z, precision)
    ev = _polylog(s, z, precision / 2, summation_cap(max_n))
    _require(ev.abs_error, precision, f"polylog {s} at z={z}")
    return ev


def eval_arborified_polylog(
    forest_or_comb,
    z: float,
    precision: float = DEFAULT_PRECISION,
    max_n: int | None = None,
) -> PolylogEval:
    """Arborified polylogarithm of a semiconvergent binary forest."""
    _check_polylog_args(z, precision)
    comb = _as_comb(forest_or_comb)
    for forest in comb:
        if not convergence_class(forest, Alphabet.XY).is_semiconvergent:
            raise NotSemiconvergent(f"forest {forest!r} is not semiconvergent")
    words = flatten(comb, 0)
    if words.is_zero():
        return PolylogEval(0.0, 0.0, z, ())
    cap = summation_cap(max_n)
    # The tails of all terms together take at most half the budget.
    tail = precision / (2.0 * float(sum(abs(c) for _, c in words.items())))
    terms = []
    for w, coeff in words.sorted_items():
        if not is_semiconvergent_word(w):
            raise NotSemiconvergent(f"flattening produced non-semiconvergent {w!r}")
        terms.append((coeff, _polylog(debinarise(w).letters, z, tail, cap)))
    total, err = _combine(terms)
    _require(err, precision, f"arborified polylog at z={z}")
    return PolylogEval(total, err, z, ())
