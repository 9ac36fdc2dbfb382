import contextlib
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from arbozeta import syntax, words
from arbozeta.catalog import forests_with_vertices
from arbozeta.cli import main
from arbozeta.errors import AlphabetMismatch, ParseError
from arbozeta.forest_algebra import clear_forest_caches, flatten, flatten_forest
from arbozeta.lincomb import LinComb
from arbozeta.trees import Forest, Tree, b_plus, leaf, tree_forest
from arbozeta.words import MAX_STAR_PARTS, MAX_TERMS, MAX_WEIGHT, Word, clear_shuffle_cache
from arbozeta.zeta import MzvCombination, MzvEval


class TestGrammar:
    def test_nested_tree(self):
        forest = syntax.parse_expression("2[1,3[2]]")
        expected = tree_forest(b_plus(2, tree_forest(leaf(1), b_plus(3, tree_forest(leaf(2))))))
        assert forest == expected

    def test_whitespace_forest(self):
        assert syntax.parse_expression("2 2") == Forest((leaf(2), leaf(2)))

    def test_empty_forest(self):
        assert syntax.parse_expression("") == Forest()
        assert syntax.parse_expression("   ") == Forest()

    def test_words(self):
        assert syntax.parse_expression("(2,1,3)") == Word([2, 1, 3])
        assert syntax.parse_expression('"xyy"') == Word("xyy")
        assert syntax.parse_expression("()") == Word()

    def test_lincomb(self):
        comb = syntax.parse_lincomb("3/2*2[1] - 4")
        assert comb.coefficient(tree_forest(b_plus(2, tree_forest(leaf(1))))) == 1.5
        assert comb.coefficient(tree_forest(leaf(4))) == -1

    def test_integral_coefficients_stay_ints(self):
        ints, half = syntax.parse_lincomb("2*(1) - (2)"), syntax.parse_lincomb("1/2*(1)")
        assert dict(ints.items()) == {Word([1]): 2, Word([2]): -1}
        assert all(type(c) is int for _, c in ints.items())
        assert type(half.coefficient(Word([1]))) is Fraction
        assert (syntax.format_lincomb(ints), syntax.format_lincomb(half)) == ("2*(1) - (2)", "1/2*(1)")
        assert type(syntax._Parser("2").parse_rational()) is int

    def test_lincomb_repeats_and_cancellation(self):
        assert syntax.parse_lincomb("2 + 3 - 2") == LinComb.of(tree_forest(leaf(3)))
        comb = syntax.parse_lincomb("1/2*2 + 3 + 1/2*2 - 3[1]")
        assert dict(comb.items()) == {
            tree_forest(leaf(2)): 1,
            tree_forest(leaf(3)): 1,
            tree_forest(b_plus(3, tree_forest(leaf(1)))): -1,
        }
        assert all(type(c) is int for _, c in comb.items())
        summed = LinComb()
        for forest, coeff in comb.items():
            summed = summed + flatten_forest(forest, 1).scale(coeff)
        assert flatten(comb, 1) == summed

    def test_long_sum_parses_and_flattens_in_linear_time(self):
        # Built by repeated +, which copies the whole dict each time, this was quadratic.
        text = " + ".join(str(k) for k in range(1, 20001))
        start = time.perf_counter()
        comb = syntax.parse_lincomb(text)
        words = flatten(comb, 1)
        assert time.perf_counter() - start < 10.0
        assert len(comb) == len(words) == 20000
        assert words.coefficient(Word([20000])) == 1

    def test_mixing_bases_rejected(self):
        with pytest.raises(ParseError):
            syntax.parse_lincomb('2[1] + "xy"')

    def test_nesting_limit(self):
        def nested(depth):
            return "2[" * depth + "1" + "]" * depth

        assert syntax.parse_expression(nested(syntax.MAX_NESTING)).vertex_count == syntax.MAX_NESTING + 1
        with pytest.raises(ParseError, match="nest deeper"):
            syntax.parse_expression(nested(syntax.MAX_NESTING + 1))
        side_by_side = " ".join([nested(2)] * syntax.MAX_NESTING)
        assert len(syntax.parse_expression(side_by_side).trees) == syntax.MAX_NESTING

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError, match="zero denominator"):
            syntax.parse_lincomb("1/0*2")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            syntax.parse_expression("2[")
        with pytest.raises(ParseError):
            syntax.parse_expression("z")
        with pytest.raises(ParseError):
            syntax.parse_expression("0")

    def test_roundtrip_corpus(self):
        # parse(print(.)) is the identity on canonical forms
        rng = random.Random(7)
        pool = [
            forest
            for v in range(0, 5)
            for forest in forests_with_vertices(v, (1, 2, 3))
        ]
        xy_pool = [
            forest
            for v in range(0, 5)
            for forest in forests_with_vertices(v, ("x", "y"))
        ]
        corpus = rng.sample(pool, min(150, len(pool))) + rng.sample(
            xy_pool, min(60, len(xy_pool))
        )
        assert len(corpus) >= 200
        for forest in corpus:
            text = syntax.format_forest(forest)
            assert syntax.parse_expression(text) == forest
        for comp in [(2,), (2, 1, 3), ()]:
            w = Word(comp)
            assert syntax.parse_expression(syntax.format_word(w)) == w
        assert syntax.parse_expression('"xyy"') == Word("xyy")

    def test_lincomb_roundtrip(self):
        comb = (
            LinComb.of(tree_forest(b_plus(2, tree_forest(leaf(1)))), 3)
            + LinComb.of(Forest((leaf(2), leaf(2))), -1)
        )
        assert syntax.parse_lincomb(syntax.format_lincomb(comb)) == comb

    def test_json_roundtrip(self):
        forest = tree_forest(b_plus(2, tree_forest(leaf(1), leaf(3))))
        data = syntax.forest_to_json(forest)
        assert syntax.forest_from_json(data) == forest


# (text, value) of parse_expression, with the values of the last release of the
# two-pass parser that tried a word before a combination.
_EXPRESSIONS = [
    ("(2,1)", Word([2, 1])),
    ('"xy"', Word("xy")),
    ("()", Word()),
    ('""', Word()),
    ("  (2)  ", Word([2])),
    ("2[1,3[2]] 2", Forest((leaf(2), b_plus(2, tree_forest(leaf(1), b_plus(3, tree_forest(leaf(2)))))))),
    ("x[y]", tree_forest(b_plus("x", tree_forest(leaf("y"))))),
    ("2,2", Forest((leaf(2), leaf(2)))),
    ("", Forest()),
    ("   ", Forest()),
    ("1*2[1]", tree_forest(b_plus(2, tree_forest(leaf(1))))),
    ("2[1] - 3", LinComb([(tree_forest(b_plus(2, tree_forest(leaf(1)))), 1), (tree_forest(leaf(3)), -1)])),
    ("1/2*(2) + (3)", LinComb([(Word([2]), Fraction(1, 2)), (Word([3]), 1)])),
    ("2 - 2", LinComb()),
    ("3*2", LinComb.of(tree_forest(leaf(2)), 3)),
    ("-(2,1)", LinComb.of(Word([2, 1]), -1)),
    ("-", LinComb.of(Forest(), -1)),
    ("2 +", LinComb([(tree_forest(leaf(2)), 1), (Forest(), 1)])),
]

_MALFORMED = [
    ("(2,1", ParseError, "expected ')', got None"),
    ("2[", ParseError, "expected ']', got None"),
    ("2]", ParseError, "trailing input at ']'"),
    ("abc", ParseError, "unexpected character 'a'"),
    ("2[0]", ParseError, "decoration must be >= 1, got 0"),
    ("1/0*2", ParseError, "zero denominator in 1/0"),
    ('2[1] + "xy"', ParseError, "cannot mix forests and words in one combination"),
    ("(2) 3", ParseError, "trailing input at '3'"),
    ("(2)(3)", ParseError, "trailing input at '('"),
    ("(x,1)", AlphabetMismatch, "mixed alphabets xy and posint"),
    ("$2", ParseError, "unexpected character '$'"),
    ("2[1$]", ParseError, "unexpected character '$'"),
    ("2 $", ParseError, "unexpected character '$'"),
    ("  \t@1", ParseError, "unexpected character '@'"),
    ("2\xa0$", ParseError, "unexpected character '$'"),
    ('"xy', ParseError, "unexpected character '\"'"),
    ('"xz"', ParseError, "unexpected character '\"'"),
    ("2[1é]", ParseError, "unexpected character 'é'"),
]


class TestParseExpression:
    @pytest.mark.parametrize("text,value", _EXPRESSIONS, ids=[t for t, _ in _EXPRESSIONS])
    def test_value(self, text, value):
        got = syntax.parse_expression(text)
        assert type(got) is type(value) and got == value

    @pytest.mark.parametrize("text,error,message", _MALFORMED, ids=[t for t, _, _ in _MALFORMED])
    def test_malformed(self, text, error, message):
        with pytest.raises(error) as info:
            syntax.parse_expression(text)
        assert str(info.value) == message


# (value, text, JSON) of syntax.render, as the CLI printed them before render existed.
_RENDERED = [
    (LinComb(), "0", []),
    (
        syntax.parse_lincomb("3*2[1] - 2 2 + 1/2*1 - 5/3*3[2,1]"),
        "1/2*1 - 2 2 + 3*2[1] - 5/3*3[1,2]",
        [
            {"coeff": "1/2", "basis": [{"d": 1, "c": []}]},
            {"coeff": "-1", "basis": [{"d": 2, "c": []}, {"d": 2, "c": []}]},
            {"coeff": "3", "basis": [{"d": 2, "c": [{"d": 1, "c": []}]}]},
            {"coeff": "-5/3", "basis": [{"d": 3, "c": [{"d": 1, "c": []}, {"d": 2, "c": []}]}]},
        ],
    ),
    (LinComb.of(Forest(), -1), "-()", [{"coeff": "-1", "basis": []}]),
    (
        syntax.parse_lincomb("-(2,1) + 2/3*(3) + ()"),
        "() - (2,1) + 2/3*(3)",
        [
            {"coeff": "1", "basis": {"letters": []}},
            {"coeff": "-1", "basis": {"letters": [2, 1]}},
            {"coeff": "2/3", "basis": {"letters": [3]}},
        ],
    ),
    (
        syntax.parse_lincomb('"xy" - 1/2*"y"'),
        '"xy" - 1/2*"y"',
        [{"coeff": "1", "basis": {"letters": ["x", "y"]}}, {"coeff": "-1/2", "basis": {"letters": ["y"]}}],
    ),
    (
        syntax.parse_lincomb('"xy" + (3,1) + () + (1,2)'),
        '() + (1,2) + (3,1) + "xy"',
        [
            {"coeff": "1", "basis": {"letters": []}},
            {"coeff": "1", "basis": {"letters": [1, 2]}},
            {"coeff": "1", "basis": {"letters": [3, 1]}},
            {"coeff": "1", "basis": {"letters": ["x", "y"]}},
        ],
    ),
    (
        MzvCombination({(2, 2): 2, (4,): 1}, "strict"),
        "2*z(2,2) + z(4)",
        {"flavor": "strict", "terms": [{"coeff": "2", "index": [2, 2]}, {"coeff": "1", "index": [4]}]},
    ),
    (
        MzvCombination({(2, 1): Fraction(-1, 2), (): 3, (3,): -1}, "star"),
        "3*1 - 1/2*zs(2,1) - zs(3)",
        {
            "flavor": "star",
            "terms": [
                {"coeff": "3", "index": []},
                {"coeff": "-1/2", "index": [2, 1]},
                {"coeff": "-1", "index": [3]},
            ],
        },
    ),
    (MzvCombination({}, "star"), "0", {"flavor": "star", "terms": []}),
    (
        MzvEval(1.2020569031595942, 2.5e-12),
        "1.2020569032 ± 2.5e-12",
        {"value": 1.2020569031595942, "abs_error": 2.5e-12},
    ),
    (MzvEval(-0.5, 0.0), "-0.5000000000 ± 0", {"value": -0.5, "abs_error": 0.0}),
]


def _raw_trees():
    return st.recursive(
        st.tuples(st.integers(1, 4), st.just(())),
        lambda children: st.tuples(st.integers(1, 4), st.lists(children, max_size=3).map(tuple)),
        max_leaves=8,
    )


def _build(raw) -> Tree:
    dec, children = raw
    return Tree(dec, tuple(_build(c) for c in children))


_FORESTS = st.lists(_raw_trees(), max_size=3).map(lambda raws: Forest(tuple(map(_build, raws))))
_WORDS = st.one_of(
    st.lists(st.integers(1, 12), max_size=5).map(Word),
    st.text("xy", max_size=5).map(Word),
)
_COEFFS = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=4))


def _fresh_text(basis) -> str:
    """The text of a forest or word computed now, bypassing the text kept on the value."""
    if isinstance(basis, Forest):
        return syntax.format_forest(basis) if basis else "()"
    return syntax.format_word(basis)


def _forget_text(basis) -> None:
    with contextlib.suppress(AttributeError):
        object.__delattr__(basis, "text")


class TestTextMemo:
    @given(st.one_of(_FORESTS, _WORDS))
    def test_basis_text_is_the_fresh_text(self, basis):
        _forget_text(basis)
        first = syntax.format_basis(basis)
        assert first == _fresh_text(basis)
        assert syntax.format_basis(basis) is first

    @given(
        st.one_of(
            st.lists(st.tuples(_FORESTS, _COEFFS), max_size=5),
            st.lists(st.tuples(_WORDS, _COEFFS), max_size=5),
        )
    )
    def test_combination_text_does_not_depend_on_the_memo(self, terms):
        comb = LinComb(terms)
        for basis in comb:
            _forget_text(basis)
        cold = syntax.format_lincomb(comb)
        assert syntax.format_lincomb(comb) == cold
        want = syntax._signed_sum((_fresh_text(b), c) for b, c in comb.sorted_items())
        assert cold == want

    def test_empty_forest_and_empty_word_print_as_unit(self):
        for basis in (Forest(), Word(())):
            assert syntax.format_basis(basis) == syntax.format_basis(basis) == "()"
        assert syntax.format_lincomb(LinComb({Forest(): 2})) == "2*()"
        assert syntax.format_lincomb(LinComb({Word(()): -1, Word((1,)): 1})) == "-() + (1)"


@pytest.mark.parametrize("value,text,data", _RENDERED, ids=[str(i) for i in range(len(_RENDERED))])
def test_render(value, text, data):
    assert syntax.render(value) == syntax.render(value, False) == text
    assert syntax.render(value, True) == json.dumps(data, indent=2)


def run_cli(*argv):
    from io import StringIO
    import contextlib

    out = StringIO()
    err = StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# The package modules that _IMPORT_GUARD watches, beside numpy, dataclasses,
# inspect, ast, dis and json: each loads only when a call needs it.
_FOREST_ALGEBRA, _ZETA, _SUITES = "arbozeta.forest_algebra", "arbozeta.zeta", "arbozeta.suites"

# (argv, exit code, the watched modules that the call is the first to load),
# run in this order in one fresh interpreter.
_LAZY_CALLS = [
    (["parse", "2[1]"], 0, []),
    (["shuffle-words", "(2)", "(3)", "--lambda", "1"], 0, []),
    (["binarize", "(2,1)"], 0, []),
    (["shuffle-trees", "2", "2[1]", "--lambda", "1"], 0, [_FOREST_ALGEBRA]),
    (["flatten", "2[1,1]", "--lambda", "-1"], 0, []),
    (["binarize-tree", "2[1,1]"], 0, []),
    (["associator", "2", "3", "2[1]", "--lambda", "1"], 0, []),
    (["eval", "1[2]"], 3, [_ZETA]),
    (["polylog", "(2)", "--z", "1.5"], 3, []),
    (["eval", "2[1]", "--precision", "nan"], 3, []),
    (["reduce", "2[1] 2"], 0, []),
    (["eval", "2 2"], 0, []),
    (["polylog", "(2,1)", "--z", "0.9"], 0, []),
    (["eval", "2 2", "--json"], 0, ["json"]),
    (["polylog", "(2,1)", "--z", "0.9", "--json"], 0, []),
]

# Run with CALLS, a list of argv lists, defined before it.
_IMPORT_GUARD = """
import contextlib, io, sys
import arbozeta, arbozeta.cli

WATCHED = ("numpy", "dataclasses", "inspect", "ast", "dis", "json",
           "arbozeta.forest_algebra", "arbozeta.zeta", "arbozeta.suites")

def loaded():
    return [name for name in WATCHED if name in sys.modules]

def call(argv):
    before = loaded()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = arbozeta.cli.main(argv)
    return code, out.getvalue(), [name for name in loaded() if name not in before]

report = {"import": loaded(), "calls": [call(argv) for argv in CALLS]}
import json
print(json.dumps(report))
"""


def _guarded(calls):
    """Run ``calls`` through ``_IMPORT_GUARD`` in a fresh interpreter; return each call's stdout.

    Fresh, because pytest and the other tests have imported every module.
    Checks that ``import arbozeta.cli`` loads no watched module, and that
    each call ends with its exit code and is the first to load exactly the
    watched modules listed with it.
    """
    argvs = [argv for argv, _, _ in calls]
    proc = subprocess.run(
        [sys.executable, "-c", f"CALLS = {argvs!r}\n{_IMPORT_GUARD}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == []
    for (argv, code, first), (got_code, _, got_first) in zip(calls, report["calls"]):
        assert (got_code, got_first) == (code, first), argv
    return [out for _, out, _ in report["calls"]]


class TestCli:
    def test_reduce_stuffle(self):
        code, out, _ = run_cli("reduce", "--flavor", "stuffle", "2 2")
        assert code == 0
        assert out.strip() == "2*z(2,2) + z(4)"

    @pytest.mark.parametrize(
        "flavor, expr, needs",
        [
            ("shuffle", "2 3", "{x,y}; binarize-tree maps a positive-integer forest there"),
            ("stuffle", "x[y]", "the positive integers; the shuffle flavor reduces forests over {x,y}"),
            ("star", "x[y] + 2", "the positive integers; the shuffle flavor reduces forests over {x,y}"),
        ],
    )
    def test_reduce_names_the_alphabet_of_its_flavor(self, flavor, expr, needs):
        code, out, err = run_cli("reduce", "--flavor", flavor, expr)
        assert (code, out) == (3, "")
        assert err == f"error: the {flavor} flavor reduces forests over {needs}\n"

    def test_eval_value(self):
        code, out, _ = run_cli("eval", "--flavor", "stuffle", "2 2", "--precision", "1e-8")
        assert code == 0
        value = float(out.split("±")[0])
        import math

        assert abs(value - math.pi**4 / 36) < 1e-7

    def test_flatten_empty(self):
        code, out, _ = run_cli("flatten", "--lambda", "0", "")
        assert code == 0
        assert out.strip() == "()"

    def test_shuffle_words(self):
        code, out, _ = run_cli("shuffle-words", "(2)", "(3)", "--lambda", "1")
        assert code == 0
        assert out.strip() == "(2,3) + (3,2) + (5)"

    def test_parse_error_exit_code(self):
        code, _, err = run_cli("parse", "2[")
        assert code == 2
        assert "parse error" in err

    def test_deep_nesting_is_parse_error(self):
        deep = "2[" * 3000 + "1" + "]" * 3000
        proc = subprocess.run(
            [sys.executable, "-m", "arbozeta.cli", "parse", deep],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2
        assert "parse error" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [["parse", "1/0*2"], ["flatten", "1/0*2"], ["shuffle-words", "1/0*(2)", "(3)"]],
        ids=["parse", "flatten", "shuffle-words"],
    )
    def test_zero_denominator_is_parse_error(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "arbozeta.cli", *argv],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 2
        assert "zero denominator" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_domain_error_exit_code(self):
        code, _, err = run_cli("eval", "--flavor", "stuffle", "1[2]")
        assert code == 3
        assert "error" in err

    def test_semigroup_error_exit_code(self):
        code, _, _ = run_cli("shuffle-words", '"xy"', '"y"', "--lambda", "1")
        assert code == 3

    def test_json_output(self):
        code, out, _ = run_cli("reduce", "--flavor", "stuffle", "2 2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["flavor"] == "strict"
        assert {"coeff": "2", "index": [2, 2]} in data["terms"]

    def test_polylog_word(self):
        code, out, _ = run_cli("polylog", "(1)", "--z", "0.5")
        import math

        assert code == 0
        assert abs(float(out.split("±")[0]) - math.log(2)) < 1e-7

    def test_polylog_forest(self):
        code, out, _ = run_cli("polylog", "y[y]", "--z", "0.5")
        import math

        assert code == 0
        assert abs(float(out.split("±")[0]) - math.log(2) ** 2 / 2) < 1e-7

    def test_binarize(self):
        code, out, _ = run_cli("binarize", "(2,1)")
        assert code == 0
        assert out.strip() == '"xyy"'

    def test_binarize_tree(self):
        code, out, _ = run_cli("binarize-tree", "2[1,1]")
        assert code == 0
        assert out.strip() == "x[y[y,y]]"

    def test_check_single_suite(self):
        code, out, _ = run_cli("check", "--suite", "mzv-oracles", "--precision", "1e-8")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_check_json_schema(self):
        code, out, _ = run_cli("check", "--suite", "mzv-oracles", "--json")
        assert code == 0
        report = json.loads(out)
        for entry in report:
            assert set(entry) == {
                "suite",
                "instance",
                "lhs",
                "rhs",
                "residual",
                "tolerance",
                "pass",
            }

    @pytest.mark.parametrize("bound", ["-5", "0"])
    def test_bad_weight_bound_is_domain_error(self, bound):
        code, out, err = run_cli("check", "--suite", "mzv-oracles", "--weight-bound", bound)
        assert code == 3
        assert "weight bound" in err
        assert "checks passed" not in out

    def test_unknown_suite(self):
        code, out, err = run_cli("check", "--suite", "nope")
        assert code == 2
        assert out == ""
        assert "unknown suite 'nope'" in err
        assert "available: associator-kernel," in err and "worked-identity, all" in err

    def test_console_script_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "arbozeta.cli", "parse", "2[1]"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2[1]"

    def test_exact_verbs_skip_numpy_and_suites(self):
        outputs = _guarded(_LAZY_CALLS)
        ev = json.loads(outputs[-2])
        assert abs(ev["value"] - math.pi**4 / 36) <= ev["abs_error"] <= 1e-8
        # Li_(2,1)(z) = sum_m z^m H_(m-1) / m^2; the terms past m = 400 add under 1e-18 at z = 0.9.
        harmonic = [0.0]
        for m in range(1, 400):
            harmonic.append(harmonic[-1] + 1 / m)
        want = math.fsum(0.9**m * harmonic[m - 1] / m**2 for m in range(1, 401))
        ev = json.loads(outputs[-1])
        assert abs(ev["value"] - want) <= ev["abs_error"] + 1e-15

    def test_polylog_and_json_load_on_their_own(self):
        # The polylog of a word never flattens, so only that of a forest loads forest_algebra.
        _guarded([
            (["parse", "2[1]", "--json"], 0, ["json"]),
            (["polylog", "(2,1)", "--z", "0.9"], 0, [_ZETA]),
            (["polylog", "x[y]", "--z", "0.9"], 0, [_FOREST_ALGEBRA]),
        ])

    def test_unknown_suite_loads_the_suites(self):
        # The suites load the whole package, and still no dataclasses, inspect, ast or dis.
        _guarded([(["check", "--suite", "nope"], 2, [_FOREST_ALGEBRA, _ZETA, _SUITES])])

    @pytest.mark.parametrize("suite", ["reduction-vs-series", "polylog"])
    def test_check_oracles_run_without_numpy(self, suite):
        # A fresh interpreter in which any import of numpy fails.
        probe = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import arbozeta.cli\n"
            f"sys.exit(arbozeta.cli.main(['check', '--suite', {suite!r}]))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_deterministic_output(self):
        first = run_cli("shuffle-trees", "2 2", "2", "--lambda", "1")
        second = run_cli("shuffle-trees", "2 2", "2", "--lambda", "1")
        assert first == second

    @pytest.mark.parametrize("precision", ["nan", "inf", "0", "-1"])
    def test_bad_precision_is_domain_error(self, precision):
        code, _, err = run_cli("eval", "2[1]", "--precision", precision)
        assert code == 3
        assert "precision" in err

    def test_polylog_below_floor_is_domain_error(self):
        code, _, err = run_cli("polylog", "(3)", "--z", "0.5", "--precision", "1e-17")
        assert code == 3
        assert "error" in err

    def test_cap_override(self):
        from arbozeta.zeta import clear_mzv_cache

        clear_mzv_cache()
        code, _, err = run_cli("eval", "--flavor", "stuffle", "2[1,1]", "--max-n", "8")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
    @pytest.mark.parametrize("argv", [("eval", "2 2"), ("polylog", "(2)", "--z", "0.5")])
    def test_malformed_cap_is_refused(self, capsys, value, argv):
        """argparse refuses a non-integer cap (exit 2); the evaluator refuses one below 1 (exit 3)."""
        try:
            code = main([*argv, f"--max-n={value}"])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if value in ("0", "-3"):
            assert (code, err) == (3, f"error: summation cap must be positive, got {value}\n")
        else:
            assert code == 2 and f"argument --max-n: invalid int value: {value!r}" in err
        assert "Traceback" not in err and not out


def _ladder(decoration, depth):
    return f"{decoration}[" * depth + "1" + "]" * depth


# Each ran out of range, recursion or memory before the weight bound.
_HEAVY_CALLS = [
    ["eval", "400"],
    ["eval", "1600"],
    ["eval", "257", "--json"],
    ["reduce", "257"],
    ["polylog", f"({MAX_WEIGHT + 1})", "--z", "0.5"],
    ["binarize", f"({MAX_WEIGHT + 1})"],
    ["binarize-tree", "500"],
    ["binarize-tree", _ladder(4, 100)],
]

# The same, each of which allocated up to 1 GB or more before it failed.
_MEMORY_CALLS = [
    ["eval", "100000"],
    ["eval", "1000000"],
    ["eval", "99999999999999999999"],
    ["polylog", "(1000000)", "--z", "0.5"],
    ["binarize", "(100000000)"],
]

_LIMITED = """
import contextlib, hashlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
import arbozeta.cli

report = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = arbozeta.cli.main(argv)
    seconds = time.perf_counter() - start
    report.append((code, err.getvalue(), seconds, hashlib.sha256(out.getvalue().encode()).hexdigest()))
print(json.dumps(report))
"""


def _limited(calls):
    """(exit code, stderr, seconds, sha256 of stdout) of each call of ``cli.main``,
    made one after another in one fresh process under a 1 GB RLIMIT_AS."""
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED, json.dumps(calls)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestWeightBound:
    @pytest.mark.parametrize("argv", _HEAVY_CALLS, ids=lambda argv: " ".join(argv)[:30])
    def test_heavy_input_is_domain_error(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and f"above the weight bound {MAX_WEIGHT}" in err

    def test_heavy_input_in_bounded_memory(self):
        for argv, (code, err, seconds, _) in zip(_MEMORY_CALLS, _limited(_MEMORY_CALLS)):
            assert code == 3 and f"above the weight bound {MAX_WEIGHT}" in err, argv
            assert seconds < 1.0, argv

    @pytest.mark.parametrize("as_json", [False, True])
    def test_binarisations_at_the_bound(self, as_json):
        json_flag = ["--json"] if as_json else []
        code, out, _ = run_cli("binarize", f"({MAX_WEIGHT})", *json_flag)
        assert code == 0 and out.count("x") == MAX_WEIGHT - 1
        code, out, _ = run_cli("binarize-tree", f"{MAX_WEIGHT}", *json_flag)
        assert code == 0 and out.count("x") == MAX_WEIGHT - 1
        code, out, _ = run_cli("binarize-tree", _ladder(2, 100), *json_flag)
        assert code == 0 and out.count("x") == 100

    def test_word_shuffles_at_the_bound(self):
        ones = "(" + ",".join(["1"] * (MAX_WEIGHT - 1)) + ")"
        try:
            code, out, err = run_cli("shuffle-words", ones, "(2)", "--lambda", "1")
        finally:
            clear_shuffle_cache()
        assert (code, err) == (0, "")
        terms = out.rstrip("\n").split(" + ")
        assert len(terms) == 2 * MAX_WEIGHT - 1 and terms[0] == ones[:-1] + ",2)" and terms[-1] == "(3," + ones[3:]
        longer = "(" + ",".join(["1"] * 1000) + ")"
        assert run_cli("shuffle-words", longer, "()", "--lambda", "1") == (0, longer + "\n", "")

    def test_unreachable_precision_at_the_bound(self):
        code, _, err = run_cli("eval", f"{MAX_WEIGHT}")
        assert code == 3 and "certified error" in err


# Each was refused only after the work: a star index expanded into all its
# 2^(parts - 1) merges, and a polylog bound exceeded before the kernel ran,
# for a word and for the 100-vertex y-ladder, which flattens to the same word.
# The forest of 171 y-leaves, whose flattening y^171 has the coefficient 171!,
# past the float range, ended in an OverflowError, and the shuffle of 1,000
# letters with one more in a RecursionError.  The stuffle of 1^128 with itself
# ran out of memory, and that of (1..12) with (13..24) ran for over a minute.
_REFUSED_BEFORE_THE_WORK = [
    (["eval", "--flavor", "star", _ladder(2, 20)], f"star index of 21 parts is above the bound of {MAX_STAR_PARTS}"),
    (["eval", "--flavor", "star", _ladder(2, 100)], f"star index of 101 parts is above the bound of {MAX_STAR_PARTS}"),
    (["polylog", "(" + ",".join(["1"] * MAX_WEIGHT) + ")", "--z", "0.99"], "certified error 1.11689e+246 exceeds"),
    (["polylog", "(" + ",".join(["1"] * 100) + ")", "--z", "0.99"], "certified error"),
    (["polylog", "y[" * 99 + "y" + "]" * 99, "--z", "0.99"], "arborified polylog at z=0.99: certified error"),
    (["polylog", " ".join(["y"] * 171), "--z", "0.5"], "certified error inf exceeds"),
    (["shuffle-words", "(" + ",".join(["1"] * 1000) + ")", "(2)"], "shuffle of words of 1001 letters is above the length bound 256"),
    (
        ["shuffle-words", "(" + ",".join(["1"] * 128) + ")", "(" + ",".join(["1"] * 128) + ")", "--lambda", "1"],
        f"shuffle of words of 128 and 128 letters has 4.95e+96 terms, above the term bound {MAX_TERMS}",
    ),
    (
        ["shuffle-words", "(" + ",".join(map(str, range(1, 13))) + ")", "(" + ",".join(map(str, range(13, 25))) + ")", "--lambda", "1"],
        "shuffle of words of 12 and 12 letters has 2.52e+08 terms",
    ),
]


class TestRefusedBeforeTheWork:
    def test_refused_in_bounded_time_and_memory(self):
        calls = [argv for argv, _ in _REFUSED_BEFORE_THE_WORK]
        for (argv, message), (code, err, seconds, _) in zip(_REFUSED_BEFORE_THE_WORK, _limited(calls)):
            assert code == 3 and err.startswith("error: ") and message in err, argv
            assert "Traceback" not in err and seconds < 1.0, argv

    def test_star_values_below_the_bound(self):
        code, out, err = run_cli("eval", "--flavor", "star", "--precision", "1e-6", _ladder(2, 6))
        assert (code, err) == (0, "") and float(out.split()[0]) > 1.0
        code, _, err = run_cli("reduce", "--flavor", "star", _ladder(2, 100))
        assert code == 0 and not err


# Each ended in a MemoryError traceback under 1 GB, after 20 to 40 s, before
# the term budget: the flattening of 9 one-vertex trees at lambda = 1, and at
# lambda = 0 that of the binarised forest 2 3 4 5 6 7 8.
_PAST_THE_BUDGET = [
    ["reduce", "2 3 4 5 6 7 8 9 10"],
    ["reduce", "--flavor", "shuffle", " ".join("x[" * (n - 1) + "y" + "]" * (n - 1) for n in range(2, 9))],
]


def _clear_product_memos():
    clear_shuffle_cache()
    clear_forest_caches()


class TestTermBudget:
    """One outermost product call, with every product it makes, stores at most
    words.MAX_TERMS terms in the memos of the three lambda-recursions."""

    @pytest.mark.parametrize("argv", _PAST_THE_BUDGET, ids=["reduce 9 trees", "reduce binarised 7 trees"])
    def test_refused_while_it_works(self, argv):
        # Each call in its own process, so that no call's memos count against the next one's memory.
        [(code, err, seconds, _)] = _limited([argv])
        assert (code, err) == (3, f"error: product stores more than {MAX_TERMS} terms, above the term bound\n")
        assert seconds < 10.0

    def test_ladder_shuffle_within_the_budget(self):
        """The tree shuffle of two 100-deep ladders stores about 692,000 terms; its output is pinned by its digest."""
        [(code, err, _, digest)] = _limited([["shuffle-trees", _ladder(2, 100), _ladder(2, 100)]])
        assert (code, err) == (0, "")
        assert digest == "1ed3d24f6af51aa3d7b33d90b5e640d5e9291ecd8117513cc7d0b472556e37ae"

    @pytest.fixture
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(words, "MAX_TERMS", 20_000)
        _clear_product_memos()
        yield
        _clear_product_memos()

    def test_flatten_within_a_small_budget(self, small_budget):
        code, out, err = run_cli("flatten", "2 3 4 5 6 7", "--lambda", "1")
        assert (code, err) == (0, "") and out.startswith("(2,3,4,5,6,7) + ")
        assert words._Budget.terms == 11_805

    def test_flatten_past_a_small_budget(self, small_budget):
        code, out, err = run_cli("flatten", "2 3 4 5 6 7 8", "--lambda", "1")
        assert (code, out, err) == (3, "", "error: product stores more than 20000 terms, above the term bound\n")

    def test_one_budget_per_outermost_call(self, small_budget):
        """The terms of a combination, or of an associator, count against one budget; the next call starts a new one."""
        assert run_cli("flatten", "2 3 4 5 6 7 + 3 4 5 6 7 8", "--lambda", "1")[0] == 3
        assert run_cli("associator", _ladder(2, 7), _ladder(2, 7), _ladder(2, 7))[0] == 3
        _clear_product_memos()
        for argv in (["flatten", "2 3 4 5 6 7", "--lambda", "1"], ["flatten", "3 4 5 6 7 8", "--lambda", "1"],
                     ["shuffle-trees", _ladder(2, 7), _ladder(2, 7)]):
            assert run_cli(*argv)[0] == 0, argv
