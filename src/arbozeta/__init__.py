"""Exact combinatorics of decorated rooted forests and words, lambda-shuffle
products, Rota-Baxter factorization models, and certified numeric evaluation
of (arborified) multiple zeta values and polylogarithms."""

from .errors import (
    AlphabetMismatch,
    ArbozetaError,
    DivergentIndex,
    DomainError,
    InvalidDecoration,
    NonConvergent,
    NotInImage,
    NotSemiconvergent,
    ParseError,
    PrecisionUnreachable,
    SemigroupRequired,
    UnsupportedAlphabet,
)
from .forest_algebra import (
    ConvergenceClass,
    associator,
    binarise_comb,
    binarise_forest,
    binarise_tree,
    convergence_class,
    debinarise_forest,
    debinarise_tree,
    flatten,
    flatten_forest,
    is_convergent_forest,
    shuffle_forests,
    shuffle_forests_basis,
)
from .lincomb import LinComb
from .trees import (
    EMPTY_FOREST,
    Alphabet,
    Forest,
    Tree,
    b_plus,
    concat_forests,
    ladder,
    ladder_decorations,
    leaf,
    tree_forest,
)
from .words import (
    EMPTY_WORD,
    Word,
    binarise,
    concat_words,
    debinarise,
    is_convergent_word,
    is_semiconvergent_word,
    shuffle_words,
    shuffle_words_basis,
    word,
)
from .zeta import (
    MzvCombination,
    MzvEval,
    azv,
    eval_arborified_polylog,
    eval_combination,
    eval_mzv,
    eval_polylog,
    reduce_azv,
    star_to_strict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
