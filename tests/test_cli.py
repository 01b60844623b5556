import ast
import os
import re
import subprocess
import sys
import time
import tracemalloc
import types

import pytest

from btt import BttError, expander, model, textio, validate_expanded
from btt.cli import main
from util import (BODY_PAYLOAD_LINE, CORPUS, CORPUS_DOCS, EXAMPLES, GOLDEN,
                  LEAF_PAYLOAD_VALUES, NESTED_FORMS, REPO, TEMPLATES, body_payload_doc, nested)


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_expand_latch_matches_golden(capsys):
    code, out, err = run_cli(capsys, "expand", EXAMPLES / "latch.yaml")
    assert code == 0
    assert out == (GOLDEN / "latch_expanded.yaml").read_text()
    # the reference document shadows the builtin latch: warned, not fatal
    assert "SHADOWED_BUILTIN" in err


def test_expand_validates_the_tree_once(monkeypatch, capsys):
    calls = []

    def counting(tree):
        calls.append(tree)
        return validate_expanded(tree)

    monkeypatch.setattr(expander, "validate_expanded", counting)
    monkeypatch.setattr(model, "validate_expanded", counting)
    code, out, _ = run_cli(capsys, "expand", EXAMPLES / "sequence_star.yaml")
    assert code == 0
    assert out == (GOLDEN / "sequence_star_expanded.yaml").read_text()
    assert len(calls) == 1


def test_expand_to_file(tmp_path, capsys):
    out_path = tmp_path / "expanded.yaml"
    code, out, _ = run_cli(capsys, "expand", EXAMPLES / "latch.yaml", "-o", out_path)
    assert code == 0
    assert out == ""
    assert out_path.read_text() == (GOLDEN / "latch_expanded.yaml").read_text()


def test_validate_ok_prints_nothing(capsys):
    code, out, _ = run_cli(capsys, "validate", EXAMPLES / "sequence_star.yaml")
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("path", CORPUS_DOCS, ids=lambda p: p.name)
def test_validate_accepts_every_shipped_document(capsys, path):
    code, out, _ = run_cli(capsys, "validate", path)  # latch.yaml shadows a builtin
    assert (code, out) == (0, "")


@pytest.mark.parametrize("path", sorted((GOLDEN / "corpus").glob("*.yaml")),
                         ids=lambda p: p.name)
def test_expand_corpus_matches_golden(capsys, path):
    """Each corpus document expands to the bytes of its golden file."""
    code, out, err = run_cli(capsys, "expand", CORPUS / path.name)
    assert (code, err) == (0, "")
    assert out == path.read_text(encoding="utf-8")


def test_every_corpus_document_has_a_golden():
    assert ({p.name for p in CORPUS.glob("*.yaml")}
            == {p.name for p in (GOLDEN / "corpus").glob("*.yaml")})


_BAD_EXPRESSIONS_DOC = """\
root: main
nodes:
  main: {type: sequence, children: [guard, act, ok, t]}
  guard: {type: condition, if: "true", then: "SUCCESS", else: "(("}
  act:
    type: action
    script: ["n := 1", "m = 2", "k := n +* 2"]
    result: "n +"
  ok: {type: latch, children: [leaf]}
  leaf: {type: condition, if: "n == 1 && ", then: "SUCCESS"}
  t: {type: check, args: {v: "+"}}
templates:
  check:
    args: [{name: v, kind: scalar}]
    root: "~"
    nodes:
      "~": {type: condition, if: "1 $v"}
"""


def test_validate_reports_each_bad_expression_with_its_node_and_line(tmp_path, capsys):
    doc = write(tmp_path, "x.yaml", _BAD_EXPRESSIONS_DOC)
    code, out, err = run_cli(capsys, "validate", doc)
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        f"{doc}:4:10: EXPR_SYNTAX: guard: else: expected a value (at offset 2)",
        f"{doc}:6:5: EXPR_SYNTAX: act: script[1]: unexpected character '=' (at offset 2)",
        f"{doc}:6:5: EXPR_SYNTAX: act: script[2]: expected a value, found '*' (at offset 8)",
        f"{doc}:6:5: EXPR_SYNTAX: act: result: expected a value (at offset 3)",
        f"{doc}:10:9: EXPR_SYNTAX: leaf: if: expected a value (at offset 10)",
        f"{doc}:17:12: EXPR_SYNTAX: t: if: expected a value (at offset 3)",
    ]


def test_run_parses_a_text_only_when_it_is_reached(tmp_path, capsys):
    doc = write(tmp_path, "c.yaml", "root: c\nnodes:\n  c: {type: condition, if: 'true', "
                                    "else: '(('}\n")
    assert run_cli(capsys, "run", doc) == (0, "result=SUCCESS\n", "")
    code, out, err = run_cli(capsys, "validate", doc)
    assert (code, out) == (3, "")
    assert err == f"{doc}:3:6: EXPR_SYNTAX: c: else: expected a value (at offset 2)\n"


def test_validate_duplicate_name(tmp_path, capsys):
    doc = write(tmp_path, "dup.yaml", """
root: main
nodes:
  main:
    type: sequence
    children: [x, x/y]
  x: {type: wrap}
  x/y: {type: action}
templates:
  wrap:
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["~/y"]
      "~/y": {type: action}
""")
    code, out, err = run_cli(capsys, "validate", doc)
    assert code == 3
    assert "DUPLICATE_NAME" in err
    assert out == ""


def test_unknown_type_exit_3(tmp_path, capsys):
    doc = write(tmp_path, "t.yaml", "root: a\nnodes:\n  a: {type: sequnce, children: [a]}\n")
    code, _, err = run_cli(capsys, "validate", doc)
    assert code == 3
    assert "UNKNOWN_TYPE" in err


def test_recursive_template_exit_3(tmp_path, capsys):
    doc = write(tmp_path, "r.yaml", """
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
""")
    code, _, err = run_cli(capsys, "expand", doc)
    assert code == 3
    assert "RECURSIVE_TEMPLATE" in err


def test_schema_error_exit_2_with_position_prefix(tmp_path, capsys):
    doc = write(tmp_path, "bad.yaml", "root: a\nnodes:\n  a: {type: action\n")
    code, _, err = run_cli(capsys, "expand", doc)
    assert code == 2
    assert err.startswith(f"{doc}:")
    assert "PARSE_ERROR" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "expand", "no/such/file.yaml")
    assert code == 2
    assert "IO_ERROR" in err


def test_run_trace_matches_golden(capsys):
    code, out, _ = run_cli(
        capsys, "run", EXAMPLES / "latch.yaml",
        "--scenario", EXAMPLES / "latch_scenario.yaml", "--ticks", "4", "--trace")
    assert code == 0
    assert out == (GOLDEN / "latch_trace.txt").read_text()
    tick4 = [line for line in out.splitlines() if line.startswith("4\t")]
    assert not any("goto" in line for line in tick4)
    assert out.splitlines()[-1] == "result=SUCCESS"


def test_run_single_action(tmp_path, capsys):
    doc = write(tmp_path, "a.yaml", "root: a\nnodes:\n  a: {type: action}\n")
    code, out, _ = run_cli(capsys, "run", doc)
    assert code == 0
    assert out == "result=SUCCESS\n"


def test_run_memory_dump_after_separator(tmp_path, capsys):
    doc = write(tmp_path, "a.yaml",
                "root: a\nnodes:\n  a: {type: action, script: ['x := 1']}\n")
    code, out, _ = run_cli(capsys, "run", doc, "--memory-dump")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "---"
    assert "x = 1" in lines
    assert "__STATE__/a = SUCCESS" in lines
    assert lines[-1] == "result=SUCCESS"


def test_a_traced_run_that_fails_keeps_its_trace(tmp_path, capsys):
    """A tick that fails writes the trace of the ticks before it and of its
    own events up to the failing node; a dump that fails writes every
    tick's trace. Neither writes a separator, a dump or a result."""
    doc = write(tmp_path, "f.yaml", "root: s\nnodes:\n  s: {type: sequence, children: [a, c]}\n"
                "  a: {type: action}\n  c: {type: condition, if: \"y > 1\"}\n")
    code, out, err = run_cli(capsys, "run", doc, "--trace", "--ticks", 2)
    assert (code, out) == (4, "1\ta\tSUCCESS\n")
    assert err.startswith(f"{doc}:5:6: RUNTIME_ERROR: c: tick 1: UNDEFINED_VARIABLE")
    # a divides by zero in tick 2, after b
    doc = write(tmp_path, "g.yaml", "root: s\nnodes:\n  s: {type: sequence, children: [b, a]}\n"
                "  b: {type: action}\n"
                "  a: {type: action, script: ['t := t + 1', 'x := 1 / (2 - t)']}\n")
    scenario = write(tmp_path, "t.yaml", "memory: {t: 0}\n")
    code, out, err = run_cli(capsys, "run", doc, "--scenario", scenario, "--trace", "--ticks", 3,
                             "--memory-dump")
    assert (code, out) == (4, "1\tb\tSUCCESS\n1\ta\tSUCCESS\n1\ts\tSUCCESS\n2\tb\tSUCCESS\n")
    assert err.startswith(f"{doc}:5:6: RUNTIME_ERROR: a: tick 2: DIVISION_BY_ZERO")
    if not hasattr(sys, "set_int_max_str_digits"):
        return
    doc = write(tmp_path, "sq.yaml",
                "root: sq\nnodes:\n  sq: {type: action, script: ['x := x * x']}\n")
    scenario = write(tmp_path, "s.yaml", "memory: {x: 10}\n")
    code, out, _ = run_cli(capsys, "run", doc, "--scenario", scenario, "--ticks", 13,
                           "--memory-dump", "--trace")
    assert (code, out) == (4, "".join(f"{t}\tsq\tSUCCESS\n" for t in range(1, 14)))


def test_memory_dump_of_an_integer_too_long_to_write_exits_4(tmp_path, capsys):
    doc = write(tmp_path, "sq.yaml",
                "root: sq\nnodes:\n  sq: {type: action, script: ['x := x * x']}\n")
    scenario = write(tmp_path, "s.yaml", "memory: {x: 10}\n")
    code, out, err = run_cli(capsys, "run", doc, "--scenario", scenario,
                             "--ticks", 13, "--memory-dump")
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit: any integer is written
        assert code == 0 and out.endswith("result=SUCCESS\n")
        return
    assert (code, out) == (4, "")
    assert err == ("RUNTIME_ERROR: x: memory value is an integer of more than 4300 digits, "
                   "too long to write\n")
    # 12 squarings give 4,097 digits, which the dump still writes
    code, out, _ = run_cli(capsys, "run", doc, "--scenario", scenario,
                           "--ticks", 12, "--memory-dump")
    assert code == 0 and f"x = 1{'0' * 4096}" in out.splitlines()


PATROL_RUN = ("run", EXAMPLES / "patrol.yaml", "--scenario", EXAMPLES / "patrol_scenario.yaml")


def test_a_traced_run_holds_one_tick_of_output(tmp_path, capsys):
    """Each tick's trace is written when the tick completes, so a run of
    20,000 ticks peaks where one of 2,000 does; holding the whole trace
    until the end took 43 MB more."""
    out_path = tmp_path / "trace.txt"
    assert run_cli(capsys, *PATROL_RUN, "--trace", "-o", out_path)[0] == 0  # fills the caches
    peaks = []
    tracemalloc.start()
    try:
        for ticks in (2000, 20000):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code = run_cli(capsys, *PATROL_RUN, "--ticks", ticks, "--trace", "-o", out_path)[0]
            assert code == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 256 * 1024, peaks
    lines = out_path.read_text().splitlines()
    assert (lines[0], lines[-2:]) == ("1\tbattery_low\tFAILURE", ["20000\tpatrol\tSUCCESS",
                                                                 "result=SUCCESS"])


def test_a_reader_that_closes_stdout_stops_the_run_with_exit_2():
    """The next write fails, which is an IO_ERROR at exit 2, with no
    traceback and no complaint at interpreter shutdown."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH")))))
    with subprocess.Popen(
            [sys.executable, "-m", "btt.cli", *map(str, PATROL_RUN), "--ticks", "100000",
             "--trace"], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"1\tbattery_low\tFAILURE\n"
        proc.stdout.close()  # the rest of the trace, megabytes of it, cannot fit in the pipe
        err = proc.stderr.read()
    assert (proc.returncode, err) == (2, b"IO_ERROR: [Errno 32] Broken pipe\n")


def test_output_path_is_opened_once_the_engine_is_built(tmp_path, capsys):
    """-o PATH is created before the first tick, so a run that fails in
    tick 1 without --trace leaves it empty; a document that fails before
    then creates none, and validate never does."""
    out_path = tmp_path / "out.txt"
    doc = write(tmp_path, "c.yaml", "root: c\nnodes:\n  c: {type: condition, if: 'y > 1'}\n")
    code, out, err = run_cli(capsys, "run", doc, "-o", out_path)
    assert (code, out, out_path.read_text()) == (4, "", "")
    assert err.startswith(f"{doc}:3:6: RUNTIME_ERROR: c: tick 1: UNDEFINED_VARIABLE")
    out_path.unlink()
    doc = write(tmp_path, "u.yaml", "root: c\nnodes:\n  c: {type: sequence, children: [x]}\n")
    for command in ("run", "expand", "dot", "validate"):
        assert run_cli(capsys, command, doc, "-o", out_path)[0] == 3
        assert not out_path.exists()
    assert run_cli(capsys, "validate", EXAMPLES / "sequence_star.yaml", "-o", out_path)[0] == 0
    assert not out_path.exists()  # validate writes nothing


@pytest.mark.parametrize("command", ["expand", "run", "dot"])
def test_an_output_path_that_cannot_be_opened_is_an_io_error(tmp_path, capsys, command):
    for path, reason in (("", "[Errno 2] No such file or directory: ''"),
                         (tmp_path, f"[Errno 21] Is a directory: '{tmp_path}'")):
        code, out, err = run_cli(capsys, command, EXAMPLES / "sequence_star.yaml", "-o", path)
        assert (code, out, err) == (2, "", f"IO_ERROR: {reason}\n")


def test_run_undefined_variable_exit_4(tmp_path, capsys):
    doc = write(tmp_path, "c.yaml",
                "root: c\nnodes:\n  c: {type: condition, if: 'missing == 1'}\n")
    code, _, err = run_cli(capsys, "run", doc)
    assert code == 4
    assert "RUNTIME_ERROR" in err
    assert "c" in err and "tick 1" in err


_TOO_LARGE = "mixes a float with an integer too large for a float"


@pytest.mark.parametrize("node, memory, message", [
    ("{type: condition, if: '1 / 0 > 0'}", "{}", "DIVISION_BY_ZERO: division by zero"),
    (f"{{type: condition, if: '1.5 * 1{'0' * 400} > 0'}}", "{}",
     f"FLOAT_OVERFLOW: '*' {_TOO_LARGE}"),
    ("{type: action, script: ['y := x + 0.5']}", f"{{x: 1{'0' * 400}}}",
     f"FLOAT_OVERFLOW: '+' {_TOO_LARGE}"),
], ids=["division-by-zero", "literal-overflow", "memory-overflow"])
def test_literal_only_error_is_valid_and_fails_at_run_time(tmp_path, capsys, node, memory,
                                                           message):
    doc = write(tmp_path, "c.yaml", f"root: c\nnodes:\n  c: {node}\n")
    scenario = write(tmp_path, "s.yaml", f"memory: {memory}\n")
    assert run_cli(capsys, "validate", doc) == (0, "", "")
    assert run_cli(capsys, "run", doc, "--scenario", scenario) == (
        4, "", f"{doc}:3:6: RUNTIME_ERROR: c: tick 1: {message}\n")


def test_runtime_error_in_a_builtin_is_located_in_its_file(tmp_path, capsys):
    """A remembered state that does not parse fails in latch's check node,
    which ``run`` reports at its line of the builtin file, as ``validate`` does."""
    doc = write(tmp_path, "l.yaml", "root: l\nnodes:\n"
                "  l: {type: latch, children: [goto], args: {remember: ['SUCCESS +']}}\n"
                "  goto: {type: action}\n")
    lines = (TEMPLATES / "latch.yaml").read_text().splitlines()
    where = f"btt:templates/latch.yaml:{lines.index('            type: condition') + 1}:13: "
    message = "EXPR_SYNTAX: expected a value (at offset 27)"
    assert run_cli(capsys, "run", doc) == (
        4, "", f"{where}RUNTIME_ERROR: l/saved/check_0: tick 1: {message}\n")
    assert run_cli(capsys, "validate", doc) == (
        3, "", f"{where}{message.replace(': ', ': l/saved/check_0: if: ', 1)}\n")


def test_unknown_scenario_action_exit_3(tmp_path, capsys):
    doc = write(tmp_path, "a.yaml", "root: a\nnodes:\n  a: {type: action}\n")
    scenario = write(tmp_path, "s.yaml", "actions: {ghost: [SUCCESS]}\n")
    code, _, err = run_cli(capsys, "run", doc, "--scenario", scenario)
    assert code == 3
    assert "UNKNOWN_SCENARIO_ACTION" in err


@pytest.mark.parametrize("text, message", [
    ("memory: {k: 1}\nactions: {goto: [SUCCESS]}\nbogus: 1\n",
     "3:1: SCHEMA_ERROR: bogus: unknown key 'bogus' in scenario"),
    ("actions: {goto: [NOPE]}\n",
     "1:17: UNKNOWN_STATE: goto: 'NOPE' is not a return state"),
], ids=["SCHEMA_ERROR", "UNKNOWN_STATE"])
def test_scenario_error_names_the_scenario_file(tmp_path, capsys, text, message):
    doc = write(tmp_path, "a.yaml", "root: goto\nnodes:\n  goto: {type: action}\n")
    scenario = write(tmp_path, "s.yaml", text)
    code, out, err = run_cli(capsys, "run", doc, "--scenario", scenario)
    assert code == 2
    assert out == ""
    assert err == f"{scenario}:{message}\n"


def test_dot_output(capsys):
    code, out, err = run_cli(capsys, "dot", EXAMPLES / "latch.yaml")
    assert code == 0
    node_lines = [line for line in out.splitlines() if "[label=" in line]
    edge_lines = [line for line in out.splitlines() if "->" in line]
    assert len(node_lines) == 3  # derived from the committed golden expansion
    assert len(edge_lines) == 2
    assert '"example" [label="example\\nskipper", shape=box];' in out
    assert '"example/saved" [label="example/saved\\ncondition", shape=diamond];' in out
    assert '"goto" [label="goto\\naction", shape=ellipse];' in out
    # deterministic across runs
    code2, out2, _ = run_cli(capsys, "dot", EXAMPLES / "latch.yaml")
    assert out2 == out


def test_no_stdlib_disables_builtins(capsys):
    code, _, err = run_cli(capsys, "expand", EXAMPLES / "sequence_star.yaml", "--no-stdlib")
    assert code == 3
    assert "UNKNOWN_TYPE" in err
    # and the shadow warning disappears for the latch doc
    code2, out2, err2 = run_cli(capsys, "expand", EXAMPLES / "latch.yaml", "--no-stdlib")
    assert code2 == 0
    assert "SHADOWED_BUILTIN" not in err2
    assert out2 == (GOLDEN / "latch_expanded.yaml").read_text()


def test_max_depth_flag(tmp_path, capsys):
    doc = write(tmp_path, "deep.yaml", """
templates:
  outer:
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["~/in"]
      "~/in": {type: inner}
  inner:
    root: "~"
    nodes:
      "~": {type: action}
root: a
nodes:
  a: {type: outer}
""")
    code, _, err = run_cli(capsys, "expand", doc, "--max-depth", "1")
    assert code == 3
    assert "DEPTH_EXCEEDED" in err
    assert run_cli(capsys, "expand", doc)[0] == 0


def _template_chain(tmp_path, length):
    """A document whose templates t0 ... t<length - 1> each instantiate the next."""
    lines = ["templates:"]
    for i in range(length):
        body = f"t{i + 1}" if i + 1 < length else "action"
        lines += [f"  t{i}:", '    root: "~"', "    nodes:", f'      "~": {{type: {body}}}']
    lines += ["root: a", "nodes:", "  a: {type: t0}"]
    return write(tmp_path, "chain.yaml", "\n".join(lines) + "\n")


_ONE_ARG = ("templates:\n  t:\n    args:\n      - {name: a, kind: %s}\n"
            "    root: x\n    nodes: {x: {type: action}}\nroot: r\nnodes: {r: {type: t}}\n")
_TWO_NODE_ARGS = ("templates:\n  t:\n    args:\n      - {name: a, kind: nodes}\n"
                  "      - {name: b, kind: %s}\n    root: x\n"
                  "    nodes: {x: {type: sequence, children: [$a]}}\n"
                  "root: r\nnodes: {r: {type: t, children: [c]}, c: {type: action}}\n")


@pytest.mark.parametrize("text, error", [
    ("templates:\n  t:\n    args:\n      - {name: a, kind: scalar}\n"
     "      - {name: a, kind: scalar}\n    root: x\n    nodes: {x: {type: action}}\n"
     "root: r\nnodes: {r: {type: t}}\n",
     "5:9: SCHEMA_ERROR: t: duplicate arg 'a'"),
    (_ONE_ARG % "scalar-list, default: 1",
     "4:9: SCHEMA_ERROR: t: scalar-list default must be a list"),
    (_ONE_ARG % "scalar, default: [1]",
     "4:9: SCHEMA_ERROR: t: scalar default must not be a list"),
    (_TWO_NODE_ARGS % "nodes",
     "3:5: SCHEMA_ERROR: t: at most one arg of kind 'nodes' is allowed"),
    (_TWO_NODE_ARGS % "node",
     "3:5: SCHEMA_ERROR: t: the 'nodes' arg must be the last node-kind arg"),
    ("templates:\n  t:\n    root: x\n    nodes: {}\nroot: r\nnodes: {r: {type: t}}\n",
     "4:12: SCHEMA_ERROR: t: template 't' must define at least one node"),
    ("templates:\n  t:\n    args:\n      - {name: xs, kind: scalar-list}\n    root: x\n"
     "    nodes:\n      x: {type: sequence, children: [$@b]}\n      b:\n"
     "        foreach: {list: $xs, var: i, index: i}\n        emit: y$i\n"
     "        nodes: {y$i: {type: action}}\nroot: r\nnodes: {r: {type: t, args: {xs: [1]}}}\n",
     "9:18: SCHEMA_ERROR: b: foreach var and index must differ"),
], ids=["duplicate-arg", "list-default", "scalar-default", "two-variadics", "variadic-not-last",
        "empty-body", "var-is-index"])
def test_template_declaration_errors_are_located(tmp_path, capsys, text, error):
    doc = write(tmp_path, "dup.yaml", text)
    assert run_cli(capsys, "expand", doc) == (2, "", f"{doc}:{error}\n")


def test_zero_ticks_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(EXAMPLES / "latch.yaml"), "--ticks", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --ticks: must be >= 1\n")


def test_max_depth_above_the_ceiling_is_a_usage_error(tmp_path, capsys):
    doc = _template_chain(tmp_path, 1200)
    with pytest.raises(SystemExit) as exc:
        main(["expand", str(doc), "--max-depth", "5000"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.endswith("error: argument --max-depth: must be <= 256\n")
    assert "Traceback" not in err


def test_a_chain_deeper_than_the_ceiling_exceeds_it(tmp_path, capsys):
    """Located at the body pattern that instantiates the template past the
    cap, with a long chain abridged to its first and last three names."""
    doc = _template_chain(tmp_path, 300)
    code, out, err = run_cli(capsys, "expand", doc, "--max-depth", 256)
    assert (code, out) == (3, "")
    assert err == (f"{doc}:1025:12: DEPTH_EXCEEDED: a: template nesting deeper than 256 "
                   "(while instantiating t0 -> t1 -> t2 -> ... 251 more ... "
                   "-> t254 -> t255 -> t256)\n")


def _template_fan(tmp_path, levels):
    """A document whose templates t0 ... t<levels - 1> each make ten of the
    next, by a foreach over a ten-element default: 10 ** levels leaves."""
    lines = ["templates:"]
    for k in range(levels):
        leaf = f"t{k + 1}" if k + 1 < levels else "action"
        lines += [f"  t{k}:", "    args:",
                  "      - {name: xs, kind: scalar-list, default: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]}",
                  '    root: "~"', "    nodes:", '      "~": {type: sequence, children: ["$@each"]}',
                  "      each:", "        foreach: {list: $xs, var: x}", '        emit: "~/c_$i"',
                  "        nodes:", f'          "~/c_$i": {{type: {leaf}}}']
    lines += ["root: a", "nodes:", "  a: {type: t0}"]
    return write(tmp_path, "fan.yaml", "\n".join(lines) + "\n")


def test_an_expansion_past_the_node_cap_ends_there(tmp_path, capsys):
    """2 KB of nested templates ask for 10 ** 7 nodes. The expansion stops
    at the instance that crosses the cap, within seconds and in bounded
    memory; without the cap it ended in a MemoryError traceback."""
    doc = _template_fan(tmp_path, 7)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "expand", doc)
        seconds, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err == (f"{doc}:67:21: TOO_MANY_NODES: a/c_0/c_0/c_8/c_9/c_9/c_7: expansion makes "
                   "more than 100000 nodes "
                   "(while instantiating t0 -> t1 -> t2 -> t3 -> t4 -> t5 -> t6)\n")
    assert seconds < 30 and peak < 64 * 2 ** 20, (seconds, peak)


@pytest.mark.parametrize("command", ["expand", "validate", "run"])
def test_validation_diagnostics_are_located_at_their_nodes(tmp_path, capsys, command):
    doc = write(tmp_path, "u.yaml",
                "nodes:\n  a: {type: sequence, children: [b]}\n  c: {type: action}\nroot: a\n")
    code, out, err = run_cli(capsys, command, doc)
    assert (code, out) == (3, "")
    assert err == (f"{doc}:2:6: UNRESOLVED_CHILD: a: child 'b' is not defined\n"
                   f"{doc}:3:6: UNREACHABLE: c: node is not reachable from the root\n")


def test_a_validation_diagnostic_in_a_builtin_is_located_at_its_pattern(tmp_path, capsys):
    doc = write(tmp_path, "l.yaml",
                "root: top\nnodes: {top: {type: latch, children: [missing]}}\n")
    code, out, err = run_cli(capsys, "expand", doc)
    assert (code, out) == (3, "")
    assert err == ("btt:templates/latch.yaml:14:9: UNRESOLVED_CHILD: top: "
                   "child 'missing' is not defined\n")


def test_diagnostic_in_a_builtin_names_the_builtin_file(tmp_path, capsys):
    """A document's own latch instantiating sequence_star, which wraps each
    child in a latch: the recursion is found at the builtin's ~/latch_$i."""
    doc = write(tmp_path, "shadow.yaml", """\
templates:
  latch:
    args:
      - {name: child, kind: node}
    root: "~"
    nodes:
      "~": {type: sequence_star, children: ["$child"]}
root: a
nodes:
  a: {type: latch, children: [b]}
  b: {type: action}
""")
    source = TEMPLATES / "sequence_star.yaml"
    # the span of the ~/latch_$i pattern: its mapping starts at "type: latch"
    line = source.read_text().splitlines().index("            type: latch") + 1
    code, out, err = run_cli(capsys, "expand", doc)
    assert (code, out) == (3, "")
    assert err.splitlines()[-1].startswith(
        f"btt:templates/sequence_star.yaml:{line}:13: RECURSIVE_TEMPLATE: a/latch_0: ")
    # a span in the document itself still prints under the document's path
    code, _, err = run_cli(capsys, "expand", write(tmp_path, "own.yaml", """\
root: a
nodes:
  a: {type: latch, children: [b, c]}
  b: {type: action}
  c: {type: action}
"""))
    assert (code, err.split(": ")[0]) == (3, f"{tmp_path / 'own.yaml'}:3:6")


_SUBSTITUTION_DOC = """\
templates:
  t:
    args:
      - {{name: xs, kind: scalar-list, default: [a, b]}}
    root: "{root}"
    nodes:
      "~":
        type: sequence
        children: ["$@each", "{child}"]
      each:
        foreach: {{list: "$xs", var: x}}
        emit: "{emit}"
        nodes:
          "~/e_$x": {{type: action}}
      "{key}": {{type: condition, if: "{if_}"}}
      "~/r": {{type: reset, args: {{targets: ["{target}"]}}}}
root: inst
nodes:
  inst: {{type: t}}
"""
_SUBSTITUTION_OK = {"root": "~", "child": "~/check", "emit": "~/e_$x", "key": "~/check",
                    "if_": "x == 1", "target": "a"}


@pytest.mark.parametrize("field, pattern, where, subject, code, message", [
    ("if_", "$nope == 1", "15:18", "inst/check", "UNBOUND_PLACEHOLDER",
     "'$nope' is not bound"),
    ("if_", "$xs == 1", "15:18", "inst/check", "LIST_IN_SCALAR_POSITION",
     "list parameter 'xs' used where a scalar is required"),
    ("if_", "$@each == 1", "15:18", "inst/check", "UNBOUND_PLACEHOLDER",
     "'$@' splices are only valid as a whole children entry"),
    ("if_", "x $ 1", "15:18", "inst/check", "UNBOUND_PLACEHOLDER",
     "'$' must be followed by a parameter name"),
    ("target", "$nope", "16:14", "inst/r", "UNBOUND_PLACEHOLDER", "'$nope' is not bound"),
    ("child", "~/c$nope", "8:9", "inst", "UNBOUND_PLACEHOLDER", "'$nope' is not bound"),
    ("child", "$@nosuch", "8:9", "inst", "UNKNOWN_BLOCK", "no foreach block named 'nosuch'"),
    ("key", "~/c$nope", "15:19", "inst", "UNBOUND_PLACEHOLDER", "'$nope' is not bound"),
    ("emit", "~/e$nope", "11:9", "inst", "UNBOUND_PLACEHOLDER", "'$nope' is not bound"),
    ("root", "~/$nope", "3:5", "inst", "UNBOUND_PLACEHOLDER", "'$nope' is not bound"),
])
def test_substitution_error_names_the_node_and_its_line(tmp_path, capsys, field, pattern,
                                                        where, subject, code, message):
    doc = write(tmp_path, "t.yaml", _SUBSTITUTION_DOC.format(
        **{**_SUBSTITUTION_OK, field: pattern}))
    code_, out, err = run_cli(capsys, "expand", doc)
    assert (code_, out) == (3, "")
    assert err == (f"{doc}:{where}: {code}: {subject}: {message}, in '{pattern}' "
                   f"(while instantiating t)\n")


def test_a_foreach_list_that_names_no_arg_is_unbound(tmp_path, capsys):
    doc = write(tmp_path, "doc.yaml", _SUBSTITUTION_DOC.format(**_SUBSTITUTION_OK).replace(
        'list: "$xs"', 'list: "$nope"'))
    assert run_cli(capsys, "expand", doc) == (
        3, "", f"{doc}:11:9: UNBOUND_PLACEHOLDER: $nope: '$nope' is not bound "
               "(while instantiating t)\n")


def test_run_on_expanded_document_gives_identical_trace(tmp_path, capsys):
    expanded = write(tmp_path, "expanded.yaml",
                     (GOLDEN / "latch_expanded.yaml").read_text())
    args = ["--scenario", EXAMPLES / "latch_scenario.yaml", "--ticks", "4", "--trace"]
    code, original, _ = run_cli(capsys, "run", EXAMPLES / "latch.yaml", *args)
    assert code == 0
    assert original == (GOLDEN / "latch_trace.txt").read_text()
    code2, reexpanded, _ = run_cli(capsys, "run", expanded, *args)
    assert code2 == 0
    assert original == reexpanded


def test_patrol_readme_commands(capsys):
    code, out, _ = run_cli(capsys, "validate", EXAMPLES / "patrol.yaml")
    assert code == 0
    assert out == ""
    code, out, err = run_cli(
        capsys, "run", EXAMPLES / "patrol.yaml", "--scenario", EXAMPLES / "patrol_scenario.yaml",
        "--ticks", "6", "--trace", "--memory-dump")
    assert code == 0, err
    assert out == (GOLDEN / "patrol_run.txt").read_text()
    lines = out.splitlines()
    # docking on tick 3 skips the scan once; the round then finishes at the roof
    assert {"position = roof", "battery = 75", "scans = 5"} <= set(lines)
    assert lines[-1] == "result=SUCCESS"


def test_readme_python_blocks_run(monkeypatch):
    """Each fenced python block of README.md runs, from the repo root, so
    the API it shows is the API there is. A failure names its README line."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", readme, re.M | re.S))
    assert blocks
    monkeypatch.chdir(REPO)
    for block in blocks:
        line = readme.count("\n", 0, block.start(1))
        exec(compile("\n" * line + block.group(1), "README.md", "exec"), {})


def test_the_public_names_of_btt_are_pinned():
    """Adding or removing a public name is a deliberate, recorded change:
    edit this list with it."""
    import btt
    public = sorted(name for name in dir(btt) if not name.startswith("_")
                    and not isinstance(getattr(btt, name), types.ModuleType))
    assert public == [
        "Assignment", "Binary", "BttError", "CanonicalizeError", "Diagnostic", "Document",
        "DumpError", "Engine", "EngineError", "ExpandError", "ExpandedTree", "ExprError",
        "ForeachBlock", "Lit", "MAX_EXPR_DEPTH", "NodeDef", "NodeKind", "ParamDecl", "ParseError",
        "ReturnState", "Scenario", "SchemaError", "SourceSpan", "TemplateDef", "TickError",
        "TraceEvent", "Unary", "ValidationFailure", "Var", "bind_arguments", "builtin_templates",
        "diagnostic_render", "eval_expr", "expand_document", "instantiate", "parse_assignment",
        "parse_document", "parse_expr", "parse_scenario", "parse_templates", "print_expr",
        "render_memory_dump", "serialize_expanded", "shadowed_builtins",
        "state_key", "validate_expanded", "value_text", "values_equal"]


def _imports(path):
    """The modules that the import statements of ``path`` name, anywhere in
    it; a relative one as btt.<module>."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(f"btt.{node.module}" if node.level else node.module)
    return names


def test_btt_imports_neither_importlib_nor_pathlib():
    """Read in the source, since ``site`` imports both before any test runs."""
    paths = sorted((REPO / "src" / "btt").glob("*.py"))
    assert len(paths) == 9
    for path in paths:
        assert not {name.split(".")[0] for name in _imports(path)} & {"importlib", "pathlib"}, path


def test_the_front_end_does_not_import_the_tick_interpreter():
    graph = {path.stem: {name[4:] for name in _imports(path) if name.startswith("btt.")}
             for path in (REPO / "src" / "btt").glob("*.py")}
    reached, todo = set(), ["textio"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(graph[module])
    assert reached == {"textio", "errors", "model"}


def test_each_error_class_carries_its_exit_code():
    import btt
    public = {name: getattr(btt, name) for name in dir(btt)}
    assert {name: cls.exit_code for name, cls in public.items()
            if isinstance(cls, type) and issubclass(cls, BttError) and cls is not BttError} == {
        "ParseError": 2, "SchemaError": 2, "ExprError": 3, "ExpandError": 3,
        "ValidationFailure": 3, "CanonicalizeError": 3, "EngineError": 3, "TickError": 4,
        "DumpError": 4}


def test_arity_mismatch_exit_3(tmp_path, capsys):
    doc = write(tmp_path, "arity.yaml", """
root: keep
nodes:
  keep: {type: latch, children: [a, b]}
  a: {type: action}
  b: {type: action}
""")
    code, _, err = run_cli(capsys, "expand", doc)
    assert code == 3
    assert "ARITY_MISMATCH" in err


def test_deep_nesting_exits_2_without_traceback(tmp_path, capsys, yaml_loader):
    doc = write(tmp_path, "deep.yaml", "a: " + "[" * 10**6)
    code, out, err = run_cli(capsys, "expand", doc)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{doc}:1:{3 + textio.MAX_NESTING}: PARSE_ERROR")
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_document_that_is_not_utf8_exits_2(tmp_path, capsys):
    doc = tmp_path / "latin1.yaml"
    doc.write_bytes(b"root: \xff\n")
    code, out, err = run_cli(capsys, "expand", doc)
    assert code == 2
    assert out == ""
    assert err == f"PARSE_ERROR: {doc}: input is not valid UTF-8: byte 0xff at offset 6\n"


def test_scenario_that_is_not_utf8_exits_2(tmp_path, capsys):
    doc = write(tmp_path, "a.yaml", "root: a\nnodes:\n  a: {type: action}\n")
    scenario = tmp_path / "s.yaml"
    scenario.write_bytes(b"memory: {k: 'caf\xe9'}\n")
    code, out, err = run_cli(capsys, "run", doc, "--scenario", scenario)
    assert code == 2
    assert out == ""
    assert err == (f"PARSE_ERROR: {scenario}: input is not valid UTF-8: "
                   "byte 0xe9 at offset 16\n")


def test_run_on_a_3000_deep_chain(tmp_path, capsys):
    lines = ["root: n0", "nodes:"]
    lines += [f"  n{i}: {{type: sequence, children: [n{i + 1}]}}" for i in range(3000)]
    lines.append("  n3000: {type: action}")
    doc = write(tmp_path, "deep.yaml", "\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "run", doc)
    assert (code, out, err) == (0, "result=SUCCESS\n", "")


@pytest.mark.parametrize("form", NESTED_FORMS)
def test_deeply_nested_condition_exits_4(tmp_path, capsys, form):
    doc = write(tmp_path, "c.yaml",
                f"root: c\nnodes:\n  c: {{type: condition, if: '{nested(form, 3000)}'}}\n")
    code, out, err = run_cli(capsys, "validate", doc)
    assert (code, out, err.count("\n")) == (3, "", 1)
    assert err.startswith(f"{doc}:3:6: EXPR_SYNTAX: c: if: expression is nested too deeply")
    code, out, err = run_cli(capsys, "run", doc)
    assert code == 4
    assert out == ""
    assert err.startswith(f"{doc}:3:6: RUNTIME_ERROR: c: tick 1: EXPR_SYNTAX: "
                          "expression is nested too deeply")


@pytest.mark.parametrize("digits", [4300, 4301, 5000])
def test_long_integer_literal_is_a_syntax_error(tmp_path, capsys, digits):
    """Python 3.11+ refuses int() past 4,300 digits; the language caps
    integer literals there on every version, as an EXPR_SYNTAX error."""
    doc = write(tmp_path, "c.yaml", "root: c\nnodes:\n  c: {type: condition, "
                f"if: '{'1' * digits} == 1', then: SUCCESS, else: FAILURE}}\n")
    validate, run = run_cli(capsys, "validate", doc), run_cli(capsys, "run", doc)
    if digits <= 4300:
        assert validate == (0, "", "")
        assert run == (0, "result=FAILURE\n", "")
        return
    message = "EXPR_SYNTAX: integer literal longer than 4300 digits (at offset 0)"
    assert validate == (3, "", f"{doc}:3:6: {message.replace(': ', ': c: if: ', 1)}\n")
    assert run[:2] == (4, "")
    assert run[2].startswith(f"{doc}:3:6: RUNTIME_ERROR: c: tick 1: {message}")


_ARG_DOC = """\
templates:
  t:
    args: [{{name: n, kind: scalar, default: {default}}}, {{name: l, kind: scalar-list}}]
    root: "~"
    nodes:
      "~": {{type: condition, if: "$n == 1"}}
root: a
nodes:
  a: {{type: t, args: {{n: {arg}, l: [{entry}]}}}}
"""
_MAX_INT = "9" * 4300


@pytest.mark.parametrize("text", [_MAX_INT, "-" + _MAX_INT, "1_" + "0" * 4299,
                                  hex(10 ** 4300 - 1)], ids=["9s", "negative", "_", "hex"])
def test_yaml_integer_of_4300_digits_is_an_argument(tmp_path, capsys, text):
    doc = write(tmp_path, "doc.yaml", _ARG_DOC.format(default=text, arg=text, entry=text))
    code, out, err = run_cli(capsys, "expand", doc)
    assert (code, err) == (0, "")
    assert f"{int(text, 0)} == 1" in out


@pytest.mark.parametrize("text, expected", [
    ("1" + "0" * 4300, "an integer of at most 4300 digits"),
    ("-1" + "0" * 4300, "an integer of at most 4300 digits"),
    ("1_" + "0" * 4300, "an integer of at most 4300 digits"),
    (hex(10 ** 4300), "an integer of at most 4300 digits"),  # int() takes it: no digit limit
    ("0b_", "an integer of at most 4300 digits"),
    ("!!int seven", "an integer of at most 4300 digits"),
    ("!!bool maybe", "a boolean"),
    ("!!float x", "a float"),
], ids=["4301", "negative", "_", "hex", "0b_", "!!int", "!!bool", "!!float"])
@pytest.mark.parametrize("where", ["default", "arg", "entry"])
def test_yaml_scalar_that_is_not_its_type_exits_2(tmp_path, capsys, text, expected, where):
    """A YAML-typed argument, default, list entry or memory seed that cannot
    be constructed, or an integer past 4,300 digits, is located, not a
    traceback."""
    values = {"default": "1", "arg": "1", "entry": "1", where: text}
    doc_text = _ARG_DOC.format(**values)
    doc = write(tmp_path, "doc.yaml", doc_text)
    line = 3 if where == "default" else 9
    column = doc_text.splitlines()[line - 1].index(text) + 1
    what = {"default": "default", "arg": "argument 'n'", "entry": "argument 'l' entry"}[where]
    code, out, err = run_cli(capsys, "expand", doc)
    assert (code, out, err) == (2, "", f"{doc}:{line}:{column}: SCHEMA_ERROR: {what} is not "
                                       f"{expected}\n")

    scenario = write(tmp_path, "s.yaml", f"memory:\n  x: {text}\n")
    code, out, err = run_cli(capsys, "run", EXAMPLES / "latch.yaml", "--scenario", scenario)
    assert (code, out) == (2, "")
    assert err.endswith(f"{scenario}:2:6: SCHEMA_ERROR: memory value for 'x' is not "
                        f"{expected}\n")


@pytest.mark.parametrize("key", list(LEAF_PAYLOAD_VALUES))
@pytest.mark.parametrize("type_", ["latch", '"$k"'])
def test_templated_node_in_a_body_with_leaf_payload_exits_3(tmp_path, capsys, type_, key):
    doc = write(tmp_path, "doc.yaml", body_payload_doc(type_, key))
    code, out, err = run_cli(capsys, "expand", doc)
    assert (code, out) == (3, "")
    assert err.startswith(f"{doc}:{BODY_PAYLOAD_LINE}:")
    assert f"BAD_NODE: a/inner: a templated node takes no '{key}'" in err


# A template body node with `if: "true"` and a `script`, its type written out
# or substituted. An empty `script: []` is judged as written, so the
# substituted condition refuses it as the literal one does.
_WRITTEN_SCRIPT_DOC = """\
templates:
  t:
    args:
      - {{name: kind, kind: scalar}}
    root: "~"
    nodes:
      "~":
        type: {type_}
        if: "true"
        script: {script}
root: m
nodes:
  m: {{type: t, args: {{kind: condition}}}}
"""


_NO_SCRIPT = "8:9: BAD_NODE: m: a condition node takes no 'script' (while instantiating t)"


@pytest.mark.parametrize("type_,script,code,located", [
    ("$kind", "[]", 3, _NO_SCRIPT),
    ("condition", "[]", 2, "10:9: SCHEMA_ERROR: ~: unknown key 'script' in condition node"),
    ("$kind", "[x := 1]", 3, _NO_SCRIPT),
])
def test_an_empty_script_on_a_substituted_condition_is_refused(tmp_path, capsys, type_, script,
                                                               code, located):
    doc = write(tmp_path, "doc.yaml", _WRITTEN_SCRIPT_DOC.format(type_=type_, script=script))
    assert run_cli(capsys, "expand", doc) == (code, "", f"{doc}:{located}\n")
