"""Exact combinatorics of decorated rooted forests and words, lambda-shuffle
products, Rota-Baxter factorization models, and certified numeric evaluation
of (arborified) multiple zeta values and polylogarithms.

The names below are loaded on first access (PEP 562), so that importing one
submodule, as the command line does, does not import the others.
"""

from importlib import import_module

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "errors": (
        "AlphabetMismatch", "ArbozetaError", "DivergentIndex", "DomainError", "InvalidDecoration",
        "NonConvergent", "NotInImage", "NotSemiconvergent", "ParseError", "PrecisionUnreachable",
        "SemigroupRequired", "UnsupportedAlphabet",
    ),
    "forest_algebra": (
        "ConvergenceClass", "associator", "binarise_comb", "binarise_forest", "binarise_tree",
        "convergence_class", "debinarise_forest", "debinarise_tree", "flatten", "flatten_forest",
        "shuffle_forests", "shuffle_forests_basis",
    ),
    "lincomb": ("LinComb",),
    "trees": (
        "EMPTY_FOREST", "Alphabet", "Forest", "Tree", "b_plus", "concat_forests", "ladder",
        "leaf", "tree_forest",
    ),
    "words": (
        "EMPTY_WORD", "Word", "binarise", "concat_words", "debinarise", "is_convergent_word",
        "is_semiconvergent_word", "shuffle_words", "shuffle_words_basis",
    ),
    "zeta": (
        "MzvCombination", "MzvEval", "azv", "eval_arborified_polylog", "eval_combination",
        "eval_mzv", "eval_polylog", "reduce_azv", "star_to_strict",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
