"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its measured runtime.
"""

import itertools
import random
import shutil
import string
import subprocess
import sys
import time

import pytest

from btt import (
    Binary,
    BttError,
    Engine,
    Lit,
    NodeKind,
    ReturnState,
    Scenario,
    Unary,
    Var,
    builtin_templates,
    eval_expr,
    expand_document,
    parse_document,
    parse_expr,
    print_expr,
    serialize_expanded,
    state_key,
)
from btt.cli import main as cli_main
from oracles import control_step, oracle_star_with_counts, parallel_step
from util import (CORPUS_DOCS, EXAMPLES, GOLDEN, REPO, action, control, expand_path,
                  expand_text, mutate, run_ticks, tree)

S, F, R, E = (ReturnState.SUCCESS, ReturnState.FAILURE,
              ReturnState.RUNNING, ReturnState.EMPTY)
BUILTINS = builtin_templates()


def report(number, name, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.3f}s < {budget}s)")


def test_criterion_1_fig1_reproduction():
    """`btt expand examples/latch.yaml` is byte-identical to the golden
    expansion. The <0.1s budget is measured on the in-process pipeline;
    the byte check still goes through the real executable."""
    golden = (GOLDEN / "latch_expanded.yaml").read_bytes()
    btt_bin = shutil.which("btt")
    if btt_bin:
        proc = subprocess.run([btt_bin, "expand", "examples/latch.yaml"],
                              cwd=REPO, capture_output=True)
    else:
        proc = subprocess.run([sys.executable, "-m", "btt.cli", "expand",
                               "examples/latch.yaml"], cwd=REPO, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden

    text = (EXAMPLES / "latch.yaml").read_text()
    t0 = time.perf_counter()
    out = serialize_expanded(expand_document(parse_document(text), builtins=BUILTINS))
    assert out.encode() == golden
    report(1, "fig1-reproduction", t0, 0.1)


def test_criterion_2_latch_behavior():
    tree = expand_path(EXAMPLES / "latch.yaml")
    reset_tree = expand_text(
        "root: unlatch\nnodes:\n  unlatch: {type: reset, args: {targets: [goto]}}\n")
    t0 = time.perf_counter()
    eng = Engine(tree, scenario=Scenario(actions={"goto": (R, R, S)}))
    roots, events = run_ticks(eng, 5)
    assert roots == [R, R, S, S, S]
    assert sum(1 for e in events if e.node == "goto") == 3

    resetter = Engine(reset_tree, memory=eng.memory)
    resetter.tick()
    assert eng.memory[state_key("goto")] is E
    _, events = eng.tick()
    assert any(e.node == "goto" for e in events)  # child is ticked again
    report(2, "latch-behavior", t0, 0.1)


def _star_tree(kind, n):
    children = ", ".join(f"c{i}" for i in range(n))
    text = "root: task\nnodes:\n  task: {type: %s_star, children: [%s]}\n" % (kind, children)
    for i in range(n):
        text += f"  c{i}: {{type: action}}\n"
    return expand_text(text)


def test_criterion_3_node_star_equivalence():
    """Exhaustive sweep: scripts of length <= 3 behave like some length-3
    script once the last entry repeats, so enumerating length-exactly-3
    scripts covers the whole <=3 space: 27 + 27^2 + 27^3 = 20439 configs
    per star kind."""
    t0 = time.perf_counter()
    per_child = list(itertools.product((S, F, R), repeat=3))
    total = 0
    for kind in ("sequence", "selector"):
        for n in (1, 2, 3):
            tree = _star_tree(kind, n)
            names = [f"c{i}" for i in range(n)]
            for combo in itertools.product(per_child, repeat=n):
                eng = Engine(tree, scenario=Scenario(
                    actions=dict(zip(names, combo))))
                got, events = run_ticks(eng, 5)
                counts = dict.fromkeys(names, 0)
                for e in events:
                    if e.node in counts:
                        counts[e.node] += 1
                want, want_counts = oracle_star_with_counts(
                    kind, [list(c) for c in combo], 5)
                assert got == want, (kind, combo)
                assert [counts[m] for m in names] == want_counts, (kind, combo)
                total += 1
    assert total == 2 * (27 + 27**2 + 27**3)
    report(3, f"node-star-equivalence ({total} configs)", t0, 60.0)


def test_criterion_4_control_semantics():
    t0 = time.perf_counter()
    states = (S, F, R, E)
    continue_of = {NodeKind.SEQUENCE: S, NodeKind.SELECTOR: F, NodeKind.SKIPPER: E}
    rows = 0
    for kind, cont in continue_of.items():
        for k in (1, 2, 3):
            for results in itertools.product(states, repeat=k):
                expected = cont
                for r in results:
                    if r != cont:
                        expected = r
                        break
                assert control_step(kind, iter(results)) is expected
                rows += 1
    assert rows == 3 * (4 + 16 + 64) == 252

    prows = 0
    for k in (1, 2, 3):
        for results in itertools.product(states, repeat=k):
            expected = E
            for probe in (F, R, S):
                if probe in results:
                    expected = probe
                    break
            assert parallel_step(list(results)) is expected
            prows += 1
    assert prows == 4 + 16 + 64 == 84
    report(4, "control-semantics (252+84 rows)", t0, 1.0)


def test_criterion_4_rows_through_the_engine():
    """Every row of criterion 4, ticked by ``Engine`` on a one-level tree
    whose children are scenario-scripted actions. Children after the
    deciding one get no event and keep their ``__STATE__`` value."""
    t0 = time.perf_counter()
    states = (S, F, R, E)
    continue_of = {"sequence": S, "selector": F, "skipper": E, "parallel": None}
    rows = 0
    for kind, cont in continue_of.items():
        for k in (1, 2, 3):
            names = [f"c{i}" for i in range(k)]
            one_level = tree(control("root", kind, names), *map(action, names))
            for results in itertools.product(states, repeat=k):
                if cont is None:  # parallel: every child, by rule order
                    expected = next((p for p in (F, R, S) if p in results), E)
                    decided = k
                else:
                    deciding = [i for i, r in enumerate(results) if r != cont]
                    expected = results[deciding[0]] if deciding else cont
                    decided = deciding[0] + 1 if deciding else k
                seeds = {state_key(c): "untouched" for c in names}
                eng = Engine(one_level, scenario=Scenario(
                    memory=seeds, actions={c: (r,) for c, r in zip(names, results)}))
                result, events = eng.tick()
                assert result is expected, (kind, results)
                assert [(e.node, e.result) for e in events] == (
                    list(zip(names[:decided], results)) + [("root", expected)])
                for c, r in zip(names[decided:], results[decided:]):
                    assert eng.memory[state_key(c)] == "untouched", (kind, results, c)
                rows += 1
    assert rows == 4 * (4 + 16 + 64) == 336
    report("4b", "control-semantics through Engine (252+84 rows)", t0, 2.0)


def test_criterion_5_expansion_laws():
    assert len(CORPUS_DOCS) >= 10
    t0 = time.perf_counter()
    for path in CORPUS_DOCS:
        text = path.read_text()
        outs = {
            serialize_expanded(expand_document(parse_document(text), builtins=BUILTINS))
            for _ in range(20)
        }
        assert len(outs) == 1, path  # deterministic across 20 runs
        out = outs.pop()
        assert "$" not in out and "~" not in out, path  # residue-free
        again = serialize_expanded(
            expand_document(parse_document(out), builtins=BUILTINS))
        assert again == out, path  # idempotent on canonical output
    report(5, f"expansion-laws ({len(CORPUS_DOCS)} docs x20)", t0, 5.0)


def test_criterion_6_error_paths(tmp_path, capsys):
    cases = [
        ("recursive.yaml", """
templates:
  loop:
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["~/x"]
      "~/x": {type: loop}
root: a
nodes:
  a: {type: loop}
""", 3, "RECURSIVE_TEMPLATE"),
        ("duplicate.yaml", """
templates:
  wrap:
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["~/y"]
      "~/y": {type: action}
root: main
nodes:
  main:
    type: sequence
    children: [x, x/y]
  x: {type: wrap}
  x/y: {type: action}
""", 3, "DUPLICATE_NAME"),
        ("arity.yaml", """
root: keep
nodes:
  keep: {type: latch, children: [a, b]}
  a: {type: action}
  b: {type: action}
""", 3, "ARITY_MISMATCH"),
        ("unknown.yaml", "root: a\nnodes:\n  a: {type: sequnce, children: [a]}\n",
         3, "UNKNOWN_TYPE"),
        ("undefined.yaml", "root: c\nnodes:\n  c: {type: condition, if: 'missing == 1'}\n",
         4, "UNDEFINED_VARIABLE"),
    ]
    t0 = time.perf_counter()
    for name, text, want_code, want_diag in cases:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        command = "run" if want_code == 4 else "expand"
        code = cli_main([command, str(path)])
        err = capsys.readouterr().err
        assert code == want_code, (name, code, err)
        assert want_diag in err, (name, err)
    report(6, "error-paths (exit 3/3/3/3/4)", t0, 10.0)


_VAR_POOL = ["a", "bat", "__STATE__/goto", "x_1", "k/v.w", "_u", "pos"]
_TEXT_ALPHABET = string.ascii_lowercase + string.digits + " _/.<>=+*-"


def _gen_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(6)
        if pick == 0:
            return Lit(rng.random() < 0.5)
        if pick == 1:
            return Lit(rng.randrange(0, 10**6))
        if pick == 2:
            return Lit(abs(rng.uniform(0, 1000) * 10 ** rng.randrange(-3, 4)))
        if pick == 3:
            return Lit(rng.choice(list(ReturnState)))
        if pick == 4:
            k = rng.randrange(0, 8)
            return Lit("".join(rng.choice(_TEXT_ALPHABET) for _ in range(k)))
        return Var(rng.choice(_VAR_POOL))
    if rng.random() < 0.2:
        return Unary(rng.choice(["!", "-"]), _gen_expr(rng, depth - 1))
    op = rng.choice(["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"])
    return Binary(op, _gen_expr(rng, depth - 1), _gen_expr(rng, depth - 1))


def test_criterion_7_expression_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(7)
    for _ in range(10_000):
        e = _gen_expr(rng, 6)
        assert parse_expr(print_expr(e)) == e

    for a, b in itertools.product(list(ReturnState), repeat=2):
        assert eval_expr(parse_expr(f"{a.value} == {b.value}"), {}) == (a is b)

    assert eval_expr(parse_expr("true || missing"), {}) is True
    assert eval_expr(parse_expr("false && missing"), {}) is False
    with pytest.raises(BttError):
        eval_expr(parse_expr("false || missing"), {})
    report(7, "expression-round-trip (10000 ASTs)", t0, 10.0)


def test_criterion_8_fuzz_robustness():
    """Mutated documents must always end in a tree or one classified error;
    anything else escaping parse/expand is a robustness bug."""
    t0 = time.perf_counter()
    rng = random.Random(8)
    bases = [p.read_text() for p in CORPUS_DOCS]
    parse_fail = expand_fail = expanded = 0
    for _ in range(10_000):
        text = mutate(rng, rng.choice(bases))
        try:
            doc = parse_document(text)
        except BttError:
            parse_fail += 1
            continue
        try:
            expand_document(doc, builtins=BUILTINS)
            expanded += 1
        except BttError:
            expand_fail += 1
    assert parse_fail + expand_fail + expanded == 10_000
    report(8, f"fuzz-robustness (10000 inputs: {expanded} expanded, "
              f"{parse_fail}+{expand_fail} rejected)", t0, 60.0)
