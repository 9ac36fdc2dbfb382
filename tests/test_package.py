"""The package surface: the names ``arbozeta`` exports, loaded on first access."""
import importlib
import json
import subprocess
import sys

import pytest

import arbozeta

# Each exported name, by the submodule that defines it.
_SURFACE = {
    "errors": [
        "AlphabetMismatch", "ArbozetaError", "DivergentIndex", "DomainError", "InvalidDecoration",
        "NonConvergent", "NotInImage", "NotSemiconvergent", "ParseError", "PrecisionUnreachable",
        "SemigroupRequired", "UnsupportedAlphabet",
    ],
    "forest_algebra": [
        "ConvergenceClass", "associator", "binarise_comb", "binarise_forest", "binarise_tree",
        "convergence_class", "debinarise_forest", "debinarise_tree", "flatten", "flatten_forest",
        "shuffle_forests", "shuffle_forests_basis",
    ],
    "lincomb": ["LinComb"],
    "trees": [
        "Alphabet", "EMPTY_FOREST", "Forest", "Tree", "b_plus", "concat_forests", "ladder",
        "leaf", "tree_forest",
    ],
    "words": [
        "EMPTY_WORD", "Word", "binarise", "concat_words", "debinarise", "is_convergent_word",
        "is_semiconvergent_word", "shuffle_words", "shuffle_words_basis",
    ],
    "zeta": [
        "MzvCombination", "MzvEval", "azv", "eval_arborified_polylog", "eval_combination",
        "eval_mzv", "eval_polylog", "reduce_azv", "star_to_strict",
    ],
}
_NAMES = [(module, name) for module, names in _SURFACE.items() for name in names]


def test_all_lists_the_api_and_its_submodules():
    assert len(_NAMES) == 52
    assert arbozeta.__all__ == sorted([*_SURFACE, *(name for _, name in _NAMES)])
    assert len(arbozeta.__all__) == 58


@pytest.mark.parametrize("module,name", _NAMES, ids=[name for _, name in _NAMES])
def test_name_is_the_submodules_own_object(module, name):
    assert getattr(arbozeta, name) is getattr(importlib.import_module(f"arbozeta.{module}"), name)


@pytest.mark.parametrize("module", list(_SURFACE))
def test_submodule_attribute(module):
    assert getattr(arbozeta, module) is importlib.import_module(f"arbozeta.{module}")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from arbozeta import *", namespace)
    assert {name: namespace[name] for name in arbozeta.__all__} == {
        name: getattr(arbozeta, name) for name in arbozeta.__all__
    }


def test_dir_lists_every_name():
    assert set(arbozeta.__all__) <= set(dir(arbozeta))
    assert "__version__" in dir(arbozeta)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'arbozeta' has no attribute 'no_such_name'"):
        arbozeta.no_such_name
    assert not hasattr(arbozeta, "_MZV_CACHE")
    with pytest.raises(ImportError):
        exec("from arbozeta import no_such_name", {})


def test_other_submodules_import_by_name():
    namespace = {}
    exec("from arbozeta import cli, suites, syntax", namespace)
    assert namespace["suites"] is importlib.import_module("arbozeta.suites")


# The memo caches that perfbench/workloads.py reads by name, by the clear_*
# function that it calls by name to empty them.  When one is renamed, the
# benchmark clears nothing or reads 0.
_CACHES = {
    ("words", "clear_shuffle_cache"): ["_SHUFFLE_CACHE"],
    ("forest_algebra", "clear_forest_caches"): ["_FLATTEN_CACHE", "_TREE_SHUFFLE_CACHE"],
    ("zeta", "clear_mzv_cache"): ["_MZV_CACHE"],
}


@pytest.mark.parametrize("module,clear", list(_CACHES), ids=[clear for _, clear in _CACHES])
def test_clear_empties_the_caches_the_benchmark_reads(module, clear):
    forest = arbozeta.syntax.parse_expression("2 3[1]")
    arbozeta.flatten_forest(forest, 1)
    arbozeta.shuffle_forests_basis(forest, forest, 1)
    arbozeta.eval_mzv((2, 1))
    submodule = importlib.import_module(f"arbozeta.{module}")
    caches = [getattr(submodule, name) for name in _CACHES[module, clear]]
    assert all(isinstance(cache, dict) and cache for cache in caches)
    getattr(submodule, clear)()
    assert not any(caches)


_FIRST_ACCESS = """
import sys
import arbozeta

def submodules():
    return sorted(name for name in sys.modules if name.startswith("arbozeta."))

report = [submodules()]
arbozeta.Word
report.append(submodules())
arbozeta.flatten
report.append(submodules())
arbozeta.zeta
report.append(submodules())
import json
print(json.dumps(report))
"""


def test_names_load_their_submodule_on_first_access():
    # A fresh interpreter: this one has imported every module.
    proc = subprocess.run([sys.executable, "-c", _FIRST_ACCESS], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    core = ["arbozeta.errors", "arbozeta.lincomb", "arbozeta.trees", "arbozeta.words"]
    assert json.loads(proc.stdout) == [
        [],
        core,
        sorted(core + ["arbozeta.forest_algebra"]),
        sorted(core + ["arbozeta.forest_algebra", "arbozeta.zeta"]),
    ]
