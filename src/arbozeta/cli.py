"""Command-line interface.

Verbs: parse, shuffle-words, shuffle-trees, flatten, binarize, binarize-tree,
reduce, eval, polylog, associator, check.  Exit codes: 0 success, 1 failed
checks, 2 parse error, 3 domain error.  Brackets deeper than
``syntax.MAX_NESTING`` (100) are a parse error; a zeta or polylog index, a
word or a tree to binarise of weight above ``words.MAX_WEIGHT`` (256), a
``shuffle-words`` of two non-empty words of more than that many letters in
all, and a star value of an index with more than ``words.MAX_STAR_PARTS``
(13) parts are domain errors, raised before any work.  A product whose memos
would store more than ``words.MAX_TERMS`` (1,000,000) terms in one call is a
domain error too, raised while it works.  So are a polylog that needs more
than ``zeta.MAX_N`` (10^7) terms and a ``check --weight-bound`` above
``suites.MAX_WEIGHT_BOUND`` (8), raised before any work.  Every verb but
``check`` computes one value, which ``syntax.render`` prints as text or JSON.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import syntax
from .errors import ArbozetaError, ParseError
from .lincomb import LinComb, _as_comb
from .trees import Forest
from .words import Word, binarise, shuffle_words

EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_DOMAIN_ERROR = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _to_comb(expr, kind) -> LinComb:
    comb = _as_comb(expr)
    if not all(isinstance(basis, kind) for basis in comb):
        raise ParseError(f"expected a {kind.__name__.lower()} expression")
    return comb


def _forest_comb(text: str) -> LinComb[Forest]:
    return _to_comb(syntax.parse_expression(text), Forest)


def _word_comb(text: str) -> LinComb[Word]:
    expr = syntax.parse_expression(text)
    if isinstance(expr, Forest) and not expr:
        expr = Word()
    return _to_comb(expr, Word)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbozeta",
        description="decorated-forest shuffle combinatorics and arborified zeta evaluation",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, **kwargs):
        p = sub.add_parser(verb, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("parse", help="parse an expression and print its canonical form")
    p.add_argument("expr")

    for verb in ("shuffle-words", "shuffle-trees"):
        p = add(verb, help=f"lambda-shuffle of two {verb.split('-')[1]}")
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(0))

    p = add("flatten", help="flattening map of weight lambda")
    p.add_argument("expr")
    p.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(0))

    p = add("binarize", help="composition to binary word")
    p.add_argument("expr")

    p = add("binarize-tree", help="branched binarisation of a forest")
    p.add_argument("expr")

    p = add("reduce", help="reduce an arborified zeta value to a zeta combination")
    p.add_argument("expr")
    p.add_argument("--flavor", choices=("stuffle", "star", "shuffle"), default="stuffle")

    p = add("eval", help="evaluate an arborified zeta value numerically")
    p.add_argument("expr")
    p.add_argument("--flavor", choices=("stuffle", "star", "shuffle"), default="stuffle")
    p.add_argument("--precision", type=float, default=1e-8)

    p = add("polylog", help="multiple polylogarithm of a composition or xy-forest")
    p.add_argument("expr")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--precision", type=float, default=1e-8)

    p = add("associator", help="associator of three forests for the tree shuffle")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("third")
    p.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(0))

    p = add("check", help="run identity suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--weight-bound", type=int, default=6, help="largest weight checked, 1 to 8 (default: 6)")

    return parser


# A verb that needs forest_algebra or zeta imports it when it runs, as _check
# imports suites, so that a call of any other verb never loads that module.

def _shuffle_trees(a):
    from .forest_algebra import shuffle_forests

    return shuffle_forests(_forest_comb(a.left), _forest_comb(a.right), a.lam)


def _flatten(a):
    from .forest_algebra import flatten

    return flatten(_forest_comb(a.expr), a.lam)


def _binarize_tree(a):
    from .forest_algebra import binarise_comb

    return binarise_comb(_forest_comb(a.expr))


def _reduce(a):
    from .zeta import reduce_azv

    return reduce_azv(_forest_comb(a.expr), a.flavor)


def _eval(a):
    from .zeta import eval_combination

    return eval_combination(_reduce(a), a.precision)


def _polylog(a):
    from .zeta import eval_arborified_polylog, eval_polylog

    expr = syntax.parse_expression(a.expr)
    if isinstance(expr, Word):
        return eval_polylog(expr.letters, a.z, a.precision)
    return eval_arborified_polylog(_to_comb(expr, Forest), a.z, a.precision)


def _single_forest(text: str) -> Forest:
    forest = syntax.parse_expression(text)
    if not isinstance(forest, Forest):
        raise ParseError("associator arguments must be single forests")
    return forest


def _associator(a):
    from .forest_algebra import associator

    return associator(*map(_single_forest, (a.first, a.second, a.third)), a.lam)


# What each verb but check computes: a LinComb, an MzvCombination or an MzvEval.
_VERBS = {
    "parse": lambda a: _as_comb(syntax.parse_expression(a.expr)),
    "shuffle-words": lambda a: shuffle_words(_word_comb(a.left), _word_comb(a.right), a.lam),
    "shuffle-trees": _shuffle_trees,
    "flatten": _flatten,
    "binarize": lambda a: _word_comb(a.expr).map_basis(binarise),
    "binarize-tree": _binarize_tree,
    "reduce": _reduce,
    "eval": _eval,
    "polylog": _polylog,
    "associator": _associator,
}


def _check(args) -> int:
    from . import suites

    try:
        report = suites.run_suite(args.suite, args.weight_bound)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    failed = sum(1 for item in report if not item["pass"])
    if args.json:
        print(syntax.dumps(report))
    else:
        for item in report:
            status = "PASS" if item["pass"] else "FAIL"
            print(f"[{status}] {item['suite']}: {item['instance']}")
        print(f"{len(report) - failed}/{len(report)} checks passed")
    return EXIT_CHECK_FAILED if failed else 0


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "check":
        return _check(args)
    print(syntax.render(_VERBS[args.verb](args), args.json))
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ArbozetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
