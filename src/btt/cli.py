"""Command-line front end: expand, validate, run, and render documents.

Exit codes: 0 success, 2 parse/schema/I-O problems, 3 expansion or
validation failures, 4 runtime errors while ticking. Diagnostics go to
stderr only, so stdout stays byte-comparable against golden files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import Engine, check_expressions, render_memory_dump
from .errors import (
    BttError,
    CanonicalizeError,
    DumpError,
    EngineError,
    ExpandError,
    ParseError,
    SchemaError,
    TickError,
    ValidationFailure,
)
from .expander import DEFAULT_MAX_DEPTH, MAX_DEPTH_CEILING, expand_document
from .model import NodeKind, diagnostic_render, dfs_preorder
from .stdlib import SHADOWED_BUILTIN, builtin_templates, shadowed_builtins
from .textio import parse_document, parse_scenario, serialize_expanded

_DOT_SHAPES = {
    NodeKind.ACTION.value: "ellipse",
    NodeKind.CONDITION.value: "diamond",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="btt",
        description="Behavior-tree template compiler and tick interpreter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("expand", "expand templates and print the canonical tree"),
        ("validate", "parse, expand and validate the tree and its expressions"),
        ("run", "expand and execute ticks over a blackboard"),
        ("dot", "render the expanded tree as Graphviz dot"),
    ):
        cmd = sub.add_parser(name, help=help_)
        cmd.add_argument("input", help="document path")
        cmd.add_argument("-o", "--output", default=None, help="write to PATH instead of stdout")
        cmd.add_argument("--max-depth", type=_max_depth, default=DEFAULT_MAX_DEPTH,
                         help=f"template nesting cap, 1 to {MAX_DEPTH_CEILING} "
                              f"(default {DEFAULT_MAX_DEPTH})")
        cmd.add_argument("--no-stdlib", action="store_true",
                         help="disable the builtin templates")
        if name == "run":
            cmd.add_argument("--ticks", type=_positive_int, default=1,
                             help="number of ticks to execute (default 1)")
            cmd.add_argument("--scenario", default=None, help="scenario path")
            cmd.add_argument("--trace", action="store_true",
                             help="print one line per ticked node")
            cmd.add_argument("--memory-dump", action="store_true",
                             help="print the final memory after a --- separator")
    return parser


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _max_depth(text):
    value = _positive_int(text)
    if value > MAX_DEPTH_CEILING:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_DEPTH_CEILING}")
    return value


def _location(span, path):
    return "" if span is None else f"{span.source or path}:{span.line}:{span.column}: "


def _report(exc: BttError, path):
    if isinstance(exc, ValidationFailure):
        for d in exc.diagnostics:
            print(f"{_location(d.span, path)}{diagnostic_render(d)}", file=sys.stderr)
    else:
        print(f"{_location(exc.span, path)}{exc.render()}", file=sys.stderr)


def _write(text, output):
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8", newline="\n")


def render_dot(tree) -> str:
    lines = ["digraph bt {"]
    index = tree.by_name()
    order = dfs_preorder(tree)
    for name in order:
        nd = index[name]
        shape = _DOT_SHAPES.get(nd.type, "box")
        lines.append(f'  "{name}" [label="{name}\\n{nd.type}", shape={shape}];')
    for name in order:
        for child in index[name].children:
            lines.append(f'  "{name}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            "PARSE_ERROR",
            f"input is not valid UTF-8: byte 0x{exc.object[exc.start]:02x} "
            f"at offset {exc.start}",
            subject=str(path),
        ) from None


def _load_tree(args):
    text = _read_text(args.input)
    doc = parse_document(text)
    builtins = None
    if not args.no_stdlib:
        builtins = builtin_templates()
        for name in shadowed_builtins(doc.templates):
            print(f"{SHADOWED_BUILTIN}: {name}: document template shadows the builtin",
                  file=sys.stderr)
    return expand_document(doc, builtins=builtins, max_depth=args.max_depth)


def _run(args, tree, scenario):
    engine = Engine(tree, scenario=scenario)
    lines = []
    result = None
    for _ in range(args.ticks):
        result, events = engine.tick()
        if args.trace:
            lines.extend(events._lines())
    if args.memory_dump:
        lines.append("---")
        dump = render_memory_dump(engine.memory)
        if dump:
            lines.append(dump)
    lines.append(f"result={result.value}")
    _write("\n".join(lines) + "\n", args.output)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    source = args.input  # the file that a parse or schema error points into
    try:
        tree = _load_tree(args)
        if args.command == "expand":
            _write(serialize_expanded(tree), args.output)
        elif args.command == "dot":
            _write(render_dot(tree), args.output)
        elif args.command == "validate":
            diagnostics = check_expressions(tree)
            if diagnostics:
                raise ValidationFailure(diagnostics)
        elif args.command == "run":
            scenario = None
            if args.scenario is not None:
                source = args.scenario
                scenario = parse_scenario(_read_text(args.scenario))
            _run(args, tree, scenario)
        return 0
    except (ParseError, SchemaError) as exc:
        _report(exc, source)
        return 2
    except (ValidationFailure, ExpandError, CanonicalizeError, EngineError) as exc:
        _report(exc, args.input)
        return 3
    except (TickError, DumpError) as exc:
        _report(exc, args.input)
        return 4
    except OSError as exc:
        print(f"IO_ERROR: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
