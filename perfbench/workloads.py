"""The four workloads: seeded inputs, one timed pass, and the output checks.

Every workload turns its seed into a fixed batch of operations (a pass).
``run_pass`` times each operation, lets the machine-speed probe
(``pace.Pace.tick``) run between operations, and keeps what each returned;
``check`` judges the first pass against references computed here, outside
the timed window, and later passes against the first.  An operation ends ``ok``,
``unanswered`` (the program refused with ``PrecisionUnreachable``, which the
README documents as its failure mode) or ``wrong``.  Both of the last two
count as failed; only ``wrong`` makes the run incorrect.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from arbozeta import cli, forest_algebra, suites, syntax, words, zeta
from arbozeta.errors import PrecisionUnreachable

import inputs

OK, UNANSWERED, WRONG = "ok", "unanswered", "wrong"

LAMBDAS = (-1, 0, 1)
CHECKS_AT_SEED = 264  # `check --suite all --weight-bound 6` at the seed commit


def clear_caches():
    """Empty every memo cache through the package's public clear_* functions."""
    for module, name in ((words, "clear_shuffle_cache"),
                         (forest_algebra, "clear_forest_caches"),
                         (zeta, "clear_mzv_cache")):
        getattr(module, name, lambda: None)()


def cache_entries() -> dict[str, int]:
    """Sizes of the module-level memo caches; 0 for a cache that is gone."""
    sizes = {}
    for metric, module, attr in (
        ("words.shuffle_cache_entries", words, "_SHUFFLE_CACHE"),
        ("forest_algebra.flatten_cache_entries", forest_algebra, "_FLATTEN_CACHE"),
        ("forest_algebra.tree_shuffle_cache_entries", forest_algebra, "_TREE_SHUFFLE_CACHE"),
        ("zeta.mzv_cache_entries", zeta, "_MZV_CACHE"),
    ):
        cache = getattr(module, attr, None)
        if cache is None:
            print(f"warning: {module.__name__}.{attr} not found", file=sys.stderr)
        sizes[metric] = len(cache) if cache is not None else 0
    return sizes


class Pass:
    """What one pass produced: per-op latency, outcome text and status."""

    def __init__(self):
        self.latency: list[float] = []
        self.text: list[str] = []
        self.status: list[str] = []
        self.value: list = []  # returned objects, kept for the first pass only


def _weight(trees) -> int:
    """Additive weight of the program's trees, summed here rather than asked for."""
    return sum(t.decoration + _weight(t.children) for t in trees)


# -- symbolic -------------------------------------------------------------------

class Symbolic:
    """Text in, text out: parse, one symbolic product or map, format."""

    # Latencies are scaled by the machine-speed probe (pace.py): every
    # symbolic op is interpreter-bound, like the probe.  The README shows the
    # spread with and without.
    SCALED = True

    # Shapes are part of the workload and the same for every seed; the seed
    # picks decorations and order.  Symbolic cost follows shape far more than
    # decoration, so the pass costs about the same whatever the seed.
    SHAPES_SEED = 1812

    def __init__(self, seed: int, tiny: bool):
        rng, shapes = random.Random(seed), random.Random(self.SHAPES_SEED)
        per_kind = 1 if tiny else 8
        shape = lambda lo, hi: inputs.forest_shape(shapes, shapes.randint(lo, hi))
        decorate = lambda lo, hi: inputs.decorate(shape(lo, hi), rng, hi=4)
        pool = []
        for param in LAMBDAS:
            for m, n in ((2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (3, 5), (4, 5), (2, 5))[:per_kind]:
                pool.append(("shuffle_words", param,
                             inputs.random_word(rng, m, hi=4), inputs.random_word(rng, n, hi=4)))
            for _ in range(per_kind):
                pool.append(("tree_shuffle", param, decorate(2, 4), decorate(2, 4)))
                pool.append(("flatten", param, decorate(4, 6)))
                pool.append(("associator", param, *(decorate(1, 2) for _ in range(3))))
        for param in ("stuffle", "star", "shuffle"):
            for _ in range(per_kind):
                pool.append(("reduce", param,
                             inputs.decorate(shape(3, 5), rng, hi=2, root_lo=2)))
        self.pool = pool
        self.queries = [self._texts(q) for q in pool]
        # Every pool entry recurs the same number of times, so repeated
        # sub-products hit the memo caches within a pass.
        self.order = [i for i in range(len(pool)) for _ in range(3)]
        rng.shuffle(self.order)

    @staticmethod
    def _texts(q):
        kind, param, *args = q
        if kind == "shuffle_words":
            return kind, param, [inputs.word_text(a) for a in args]
        return kind, param, [inputs.forest_text(a) for a in args]

    def run_pass(self, tracer, pace, keep: bool) -> Pass:
        out = Pass()
        parse, fmt = syntax.parse_expression, syntax.format_lincomb
        for op, i in enumerate(self.order):
            kind, param, texts = self.queries[i]
            tracer.op = op
            pace.tick()
            start = time.perf_counter()
            with tracer.span("op"):
                with tracer.span("syntax.parse"):
                    args = [parse(t) for t in texts]
                if kind == "shuffle_words":
                    with tracer.span("words.shuffle"):
                        value = words.shuffle_words_basis(args[0], args[1], param)
                elif kind == "tree_shuffle":
                    with tracer.span("forest_algebra.tree_shuffle"):
                        value = forest_algebra.shuffle_forests_basis(args[0], args[1], param)
                elif kind == "flatten":
                    with tracer.span("forest_algebra.flatten"):
                        value = forest_algebra.flatten(args[0], param)
                elif kind == "associator":
                    with tracer.span("forest_algebra.associator"):
                        value = forest_algebra.associator(*args, param)
                else:
                    forest = args[0]
                    if param == "shuffle":
                        with tracer.span("forest_algebra.binarise"):
                            forest = forest_algebra.binarise_forest(forest)
                    with tracer.span("zeta.reduce"):
                        comb = zeta.reduce_azv(forest, param)
                    value = (forest, comb)
                with tracer.span("syntax.format"):
                    text = syntax.format_combination(value[1]) if kind == "reduce" else fmt(value)
            out.latency.append(time.perf_counter() - start)
            out.text.append(text)
            out.status.append(OK)
            if keep:
                out.value.append(value)
        return out

    def check(self, first: Pass) -> list[str]:
        return [self._check_one(self.pool[i], value) for i, value in zip(self.order, first.value)]

    @staticmethod
    def _check_one(query, value) -> str:
        import oracles  # mpmath loads here, after the set-up window

        kind, param, *args = query
        if kind == "shuffle_words":
            m, n = len(args[0]), len(args[1])
            want_weight = sum(args[0]) + sum(args[1])
            if value.coefficient_sum() != oracles.lambda_shuffle_sum(m, n, param):
                return WRONG
            return OK if all(sum(w.letters) == want_weight for w in value) else WRONG
        if kind == "flatten":
            (forest,) = args
            if param == 0 and value.coefficient_sum() != inputs.linear_extensions(forest):
                return WRONG
            want = inputs.weight(forest)
            return OK if all(sum(w.letters) == want for w in value) else WRONG
        if kind in ("tree_shuffle", "associator"):
            want = sum(inputs.weight(f) for f in args)
            return OK if all(_weight(f.trees) == want for f in value) else WRONG
        (forest,) = args
        binary, comb = value
        want = inputs.weight(forest)
        if param == "shuffle" and binary != syntax.parse_expression(
            inputs.binarised_forest_text(forest)
        ):
            return WRONG
        if not comb.terms or any(sum(index) != want for index in comb.terms):
            return WRONG
        return OK if all(isinstance(c, int) for c in comb.terms.values()) else WRONG

    def counts(self, first: Pass) -> dict[str, int]:
        terms = {"words.shuffle_terms": 0, "forest_algebra.tree_shuffle_terms": 0,
                 "forest_algebra.flatten_terms": 0, "zeta.reduce_terms": 0}
        metric = {"shuffle_words": "words.shuffle_terms",
                  "tree_shuffle": "forest_algebra.tree_shuffle_terms",
                  "flatten": "forest_algebra.flatten_terms"}
        for i, value in zip(self.order, first.value):
            kind = self.pool[i][0]
            if kind == "reduce":
                terms["zeta.reduce_terms"] += len(value[1])
            elif kind in metric:
                terms[metric[kind]] += len(value)
        return terms


# -- numeric --------------------------------------------------------------------

class Numeric:
    """Certified evaluations: arborified zeta values and polylogarithms."""

    SCALED = False  # the probe does not track it: see the README

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(seed)
        # (kind, text, flavor or z, precision, reference); a reference names an
        # oracles function and its arguments, evaluated only when checking.
        # Corolla ladder 2[1^k]; 2[1^7] is out of reach at the seed and stays
        # in the traffic.
        ladder = [[("azv", "2[" + ",".join(["1"] * k) + "]", "stuffle", 1e-8, None)]
                  for k in (range(3, 5) if tiny else range(3, 8))]
        units = []  # one op each, but an escalation pair is one unit of two
        # Every convergent forest of weight 3 to 6 (4 in the tiny size), in
        # both flavors, at precisions 1e-6, 1e-8 and 1e-10 in turn, in order
        # of weight.  This sweep is the same for every seed, so what the MZV
        # cache serves within it does not vary with the seed.
        sweep = [(forest, flavor) for w in range(3, 5 if tiny else 7)
                 for forest in inputs.convergent_forests(w) for flavor in ("stuffle", "star")]
        for i, (forest, flavor) in enumerate(sweep):
            units.append([("azv", inputs.forest_text(forest), flavor,
                           (1e-6, 1e-8, 1e-10)[i % 3], None)])
        rest = []
        # The groups below are the same for every seed and the seed orders
        # them.  With seeded contents, how many costly ops a seed drew moved
        # op_p90_ms by up to half: the 90th percentile falls where op costs
        # step from about 2 ms to 5 ms and 9 ms.
        # Products of single vertices: zeta(a) zeta(b) in either flavor.
        products = ((2,), (3,), (4,), (3,), (2, 2), (2, 3), (2, 4), (3, 2),
                    (3, 3), (3, 4), (4, 2), (4, 4))
        for i, parts in enumerate(products[:2] if tiny else products):
            rest.append(("azv", " ".join(map(str, parts)), ("stuffle", "star")[i % 2],
                         1e-8, ("zeta_product", parts)))
        # Ladders with closed forms: zeta(2,1^k) = zeta(k+2), zeta({2}^k).
        for k in (range(1, 3) if tiny else range(1, 5)):
            for precision in (1e-8, 1e-10):
                rest.append(("azv", inputs.forest_text(inputs.chain((2,) + (1,) * k)),
                             "stuffle", precision, ("zeta_2_ones", k)))
                rest.append(("azv", inputs.forest_text(inputs.chain((2,) * k)),
                             "stuffle", precision, ("zeta_twos", k)))
        # Precision escalation: the same forest loose, then tight.
        escalated = inputs.convergent_forests(5)[::2]
        for i, forest in enumerate(escalated[:1] if tiny else escalated):
            rest.append(("escalate", inputs.forest_text(forest), ("stuffle", "star")[i % 2],
                         1e-6, None))
        indices = ((1,), (3,), (1, 2), (2, 1), (2, 3), (1, 1, 2), (2, 1, 3), (3, 2, 1))
        for z in (0.25, 0.5, 0.9):
            for s in (indices[1], indices[5]) if tiny else indices:
                rest.append(("polylog", inputs.word_text(s), z, 1e-10, ("polylog", s, z)))
        rng.shuffle(rest)
        for op in rest:
            if op[0] == "escalate":
                units.append([("azv",) + op[1:], ("azv", op[1], op[2], 1e-10, None)])
            else:
                units.append([op])
        # The ladder takes most of a pass's time (2[1^7] alone about 7 s).
        # Spread through the pass in increasing k, it leaves the many short
        # operations timed in six stretches across the pass rather than in one
        # short stretch after it, so a few seconds of slow machine move
        # op_p50_ms less.
        at = [(j + 1) * len(units) // (len(ladder) + 1) for j in range(len(ladder))]
        for j in reversed(range(len(ladder))):
            units.insert(at[j], ladder[j])
        self.ops = [op for unit in units for op in unit]

    def run_pass(self, tracer, pace, keep: bool) -> Pass:
        out = Pass()
        parse = syntax.parse_expression
        for op, (kind, text, param, precision, _) in enumerate(self.ops):
            tracer.op = op
            status = OK
            pace.tick()
            start = time.perf_counter()
            with tracer.span("op"):
                with tracer.span("syntax.parse"):
                    expr = parse(text)
                try:
                    if kind == "polylog":
                        with tracer.span("zeta.polylog"):
                            value = zeta.eval_polylog(expr.letters, param, precision)
                    else:
                        with tracer.span("zeta.reduce"):
                            comb = zeta.reduce_azv(expr, param)
                        with tracer.span("zeta.eval"):
                            value = zeta.eval_combination(comb, precision)
                    with tracer.span("syntax.format"):
                        result = syntax.format_eval(value)
                except PrecisionUnreachable:
                    value, result, status = None, "PrecisionUnreachable", UNANSWERED
            out.latency.append(time.perf_counter() - start)
            out.text.append(result)
            out.status.append(status)
            if keep:
                out.value.append((value, len(comb) if kind == "azv" else 0))
        return out

    def check(self, first: Pass) -> list[str]:
        import oracles  # mpmath loads here, after the set-up window

        verdicts = []
        loose: dict[tuple, object] = {}
        for (kind, text, param, precision, ref), status, (value, _) in zip(
            self.ops, first.status, first.value
        ):
            if status != OK:
                verdicts.append(status)
                continue
            good = value.abs_error <= precision
            if ref is not None:
                want = getattr(oracles, ref[0])(*ref[1:])
                good = good and oracles.within(value.value, value.abs_error, want)
            key = (text, param)
            if kind == "azv" and key in loose:
                other = loose[key]  # same forest, evaluated earlier at another precision
                good = good and abs(value.value - other.value) <= value.abs_error + other.abs_error
            loose[key] = value
            verdicts.append(OK if good else WRONG)
        return verdicts

    def counts(self, first: Pass) -> dict[str, int]:
        terms = sum(n for _, n in first.value)
        return {"zeta.reduce_terms": terms, "zeta.eval_terms": terms}

    def failed_ops(self, first: Pass) -> set[int]:
        return {i for i, s in enumerate(first.status) if s == UNANSWERED}


# -- CLI ------------------------------------------------------------------------

def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root: Path, argv: list[str]) -> tuple[float, int, str]:
    """One ``python -m arbozeta.cli`` call: latency, exit code, stdout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "arbozeta.cli", *argv], cwd=root,
                          env=cli_env(root), capture_output=True, text=True)
    return time.perf_counter() - start, proc.returncode, proc.stdout


# Inputs the README documents as parse errors (exit 2) or domain errors (exit 3).
ERROR_CALLS = [
    (["parse", "2[1"], 2),
    (["parse", "2[0]"], 2),
    (["parse", "abc"], 2),
    (["flatten", "2[1]]"], 2),
    (["shuffle-trees", "2", "(3)"], 2),
    (["associator", "2", "2", "(2)"], 2),
    (["shuffle-words", "(2)", "(3)", "--lambda", "q"], 2),
    (["reduce", "1"], 3),
    (["eval", "1[2]"], 3),
    (["polylog", "(2)", "--z", "1.5"], 3),
    (["shuffle-words", "(x)", "(y)", "--lambda", "1"], 3),
    (["flatten", "--lambda", "1", "x[y]"], 3),
    (["binarize", "(1,x)"], 3),
    (["reduce", "--flavor", "shuffle", "2"], 3),
    (["polylog", "x", "--z", "0.5"], 3),
]

VERBS = ("parse", "shuffle-words", "shuffle-trees", "flatten", "binarize", "binarize-tree",
         "reduce", "eval", "polylog", "associator")


class CliMix:
    """Single CLI calls over every verb but ``check``; a minority must fail."""

    SCALED = False  # the probe does not track it: see the README

    def __init__(self, seed: int, tiny: bool, root: Path):
        rng = random.Random(seed)
        self.root = root
        calls = []
        per_verb = 1 if tiny else 8
        for verb in VERBS:
            for _ in range(per_verb):
                calls.append((self._valid(rng, verb), 0))
        errors = 2 if tiny else 20
        calls.extend(rng.choice(ERROR_CALLS) for _ in range(errors))
        rng.shuffle(calls)
        self.calls = calls

    @staticmethod
    def _valid(rng: random.Random, verb: str) -> list[str]:
        lam = ["--lambda", rng.choice(("-1", "0", "1", "1/2"))]

        def forest(fewest, most, **decorations):
            """Random forest on fewest..most vertices."""
            shape = inputs.forest_shape(rng, rng.randint(fewest, most))
            return inputs.decorate(shape, rng, **decorations)

        small = lambda: inputs.forest_text(forest(1, 3))
        if verb == "parse":
            argv = [verb, inputs.forest_text(forest(1, 6))]
        elif verb == "shuffle-words":
            argv = [verb, inputs.word_text(inputs.random_word(rng, rng.randint(1, 3))),
                    inputs.word_text(inputs.random_word(rng, rng.randint(1, 3))), *lam]
        elif verb == "shuffle-trees":
            argv = [verb, small(), small(), *lam]
        elif verb == "flatten":
            argv = [verb, inputs.forest_text(forest(2, 5)), *lam]
        elif verb == "binarize":
            argv = [verb, inputs.word_text(inputs.random_word(rng, rng.randint(1, 4)))]
        elif verb == "binarize-tree":
            argv = [verb, inputs.forest_text(forest(1, 4))]
        elif verb == "reduce":
            tree = forest(1, 3, hi=2, root_lo=2)
            flavor = rng.choice(("stuffle", "star", "shuffle"))
            text = (inputs.binarised_forest_text(tree) if flavor == "shuffle"
                    else inputs.forest_text(tree))
            argv = [verb, text, "--flavor", flavor]
        elif verb == "eval":
            argv = [verb, inputs.forest_text(forest(1, 3, hi=2, root_lo=2)),
                    "--flavor", rng.choice(("stuffle", "star")),
                    "--precision", rng.choice(("1e-6", "1e-8"))]
        elif verb == "polylog":
            s = inputs.random_word(rng, rng.randint(1, 2))
            argv = [verb, inputs.word_text(s), "--z", rng.choice(("0.25", "0.5", "0.9"))]
        else:
            argv = [verb, small(), small(), small(), *lam]
        if rng.random() < 0.2:
            argv.append("--json")
        return argv

    def run_pass(self, tracer, pace, keep: bool) -> Pass:
        out = Pass()
        for op, (argv, expected) in enumerate(self.calls):
            tracer.op = op
            pace.tick()
            with tracer.span("cli." + ("error" if expected else argv[0])):
                latency, code, stdout = run_cli(self.root, argv)
            out.latency.append(latency)
            out.text.append(f"{code}\n{stdout}")
            out.status.append(OK)
        return out

    def check(self, first: Pass) -> list[str]:
        """Exit code as expected, stdout equal to the same call made in process."""
        verdicts = []
        for (argv, expected), text in zip(self.calls, first.text):
            clear_caches()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            ok = text == f"{code}\n{buf.getvalue()}" and code == expected
            verdicts.append(OK if ok else WRONG)
        clear_caches()
        return verdicts

    def counts(self, first: Pass) -> dict[str, int]:
        return {}

    def latency_by_verb(self, latencies: list[float]) -> dict[str, list[float]]:
        """Latencies of every pass, grouped by verb, error inputs apart."""
        groups: dict[str, list[float]] = {}
        for i, latency in enumerate(latencies):
            argv, expected = self.calls[i % len(self.calls)]
            groups.setdefault("error" if expected else argv[0], []).append(latency)
        return groups


# -- check-all ------------------------------------------------------------------

class CheckAll:
    """The acceptance entry point, ``check --suite all``, as a subprocess."""

    SCALED = False  # the probe does not track it: see the README

    def __init__(self, tiny: bool, root: Path):
        # The suites are fixed by the package, so there is no seed to use.
        self.root = root
        self.bound = 3 if tiny else 6
        self.argv = ["check", "--suite", "all", "--weight-bound", str(self.bound)]

    def run_pass(self, tracer, pace, keep: bool) -> Pass:
        out = Pass()
        pace.tick()
        latency, code, stdout = run_cli(self.root, self.argv)
        out.latency.append(latency)
        out.text.append(f"{code}\n{stdout}")
        out.status.append(OK)
        return out

    def run_in_process(self, tracer) -> list[dict]:
        """Each suite through ``run_suite``, in ``SUITES`` order, one span each."""
        report = []
        for op, name in enumerate(suites.SUITES):
            tracer.op = op
            with tracer.span("suites." + name):
                report.extend(suites.run_suite(name, self.bound, 1e-8))
        return report

    def check(self, first: Pass) -> list[str]:
        """One verdict per reported check; a malformed report is one WRONG."""
        code, _, stdout = first.text[0].partition("\n")
        lines = stdout.splitlines()
        marks = [line.startswith("[PASS]") for line in lines if line.startswith("[")]
        summary = f"{sum(marks)}/{len(marks)} checks passed"
        well_formed = bool(lines) and lines[-1] == summary and code == str(int(not all(marks)))
        if not well_formed or (self.bound == 6 and len(marks) < CHECKS_AT_SEED):
            return [WRONG]
        return [OK if m else WRONG for m in marks]
