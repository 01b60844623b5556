"""One measured run of one workload, in a fresh process.

``run.py`` starts this script once per sample, one process at a time, so
that process-wide caches (the builtin templates, the engine's parsed
expressions) start cold as they do for a ``btt`` user. It prints one JSON
object on stdout with raw ``perf_counter_ns`` intervals, which ``run.py``
scales to reference speed (see ``calibrate.py``).

Untraced (``--trace 0``) it records only the intervals the end-to-end
figures need. Traced (``--trace 1``) it also records a span around each
call into a ``btt`` module. Only the public API is called:
``parse_document``, ``parse_scenario``, ``builtin_templates``,
``expand_document``, ``validate_expanded``, ``serialize_expanded``,
``Engine(tree, scenario=, memory=)`` with the events its ``tick()``
returns, and ``parse_expr``/``parse_assignment``/``eval_expr``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from collections import Counter

import workloads
from btt import (
    BttError,
    Engine,
    ExprError,
    builtin_templates,
    eval_expr,
    expand_document,
    parse_assignment,
    parse_document,
    parse_expr,
    parse_scenario,
    serialize_expanded,
    validate_expanded,
)
from spans import NoSpans, Spans


def _expression_texts(tree):
    """Distinct expression texts the tree carries, split by parser."""
    exprs, assignments = set(), set()
    for nd in tree.nodes:
        if nd.type == "condition":
            exprs.update((nd.if_, nd.then, nd.else_))
        elif nd.type == "action":
            exprs.add(nd.result)
            assignments.update(nd.script)
    return sorted(exprs), sorted(assignments)


def _expression_costs(tree, memory, stage):
    """Parse and evaluate each distinct expression text once, as timed stages."""
    exprs, assignments = _expression_texts(tree)
    with stage("exprs.parse"):
        parsed = [parse_expr(t) for t in exprs]
        parsed += [parse_assignment(t).value for t in assignments]
    evaluable = []
    for e in parsed:
        try:
            eval_expr(e, memory)
        except ExprError:
            continue  # e.g. the right side of a short-circuited && on unset keys
        evaluable.append(e)
    with stage("exprs.eval"):
        for e in evaluable:
            eval_expr(e, memory)
    return len(parsed), len(evaluable)


def _evals(nd, scripted):
    """Expression evaluations one tick of this node makes."""
    if nd.type == "condition":
        return 2  # 'if', then 'then' or 'else'
    if nd.type == "action" and nd.name not in scripted:
        return len(nd.script) + 1
    return 0


def measure(w, spans=None):
    """Set up and tick workload ``w`` once; return intervals and check counts.

    ``setup_s`` covers the stages listed under ``setup``, from document
    text to the first tick's result. Steady ticks are timed one by one. Every
    compile and tick is checked against the workload's expectations; a
    mismatch or a ``BttError`` is a failed operation.
    """
    traced = spans is not None
    spans = spans if traced else NoSpans()
    out = {"attempted": 1, "failed": 0, "errors": [], "stages": {}}

    def fail(what):
        out["failed"] += 1
        if len(out["errors"]) < 5:
            out["errors"].append(what)

    @contextlib.contextmanager
    def stage(name):
        with spans.span(name):
            start = time.perf_counter_ns()
            yield
            out["stages"][name] = (start, time.perf_counter_ns())

    memory = {}
    try:
        with spans.span("worker"):
            with spans.span("setup"):
                with stage("stdlib.builtins"):
                    builtins = builtin_templates()
                with stage("textio.parse"):
                    doc = parse_document(w.document)
                with stage("expander.expand"):
                    tree = expand_document(doc, builtins=builtins)
                with stage("textio.scenario"):
                    scenario = parse_scenario(w.scenario)
                with stage("engine.init"):
                    engine = Engine(tree, scenario=scenario, memory=memory)
                with stage("engine.first_tick"):
                    root, events = engine.tick()
            out["setup"] = list(out["stages"])

            names = [nd.name for nd in tree.nodes]
            if (len(names) != len(w.node_names)
                    or workloads.names_digest(names) != workloads.names_digest(w.node_names)):
                fail("expanded node names differ from the prediction")
            counts = Counter(e.node for e in events)
            out["attempted"] += 1
            if not w.tick_ok(1, root.value, events, memory):
                fail("tick 1")

            ticks, node_ticks = [], 0
            for tick in range(2, w.steady_ticks + 2):
                start = time.perf_counter_ns()
                with spans.span("engine.tick"):
                    root, events = engine.tick()
                ticks.append((start, time.perf_counter_ns()))
                node_ticks += len(events)
                counts.update(e.node for e in events)
                out["attempted"] += 1
                if not w.tick_ok(tick, root.value, events, memory):
                    fail(f"tick {tick}")
            out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out["ticks"] = ticks
            out["attempted"] += 1
            if not w.final_ok(w.steady_ticks + 1, counts, memory):
                fail("per-node tick counts")

            with stage("model.validate"):
                diagnostics = validate_expanded(tree)
            out["attempted"] += 1
            if diagnostics:
                fail("validate_expanded reported diagnostics")
            with stage("textio.serialize"):
                text = serialize_expanded(tree)
            out["serialized_sha256"] = hashlib.sha256(text.encode()).hexdigest()
            if traced:
                distinct, evaluable = _expression_costs(tree, memory, stage)
                by_name = {nd.name: nd for nd in tree.nodes}
                scripted = set(scenario.actions)
                evals = sum(_evals(by_name[n], scripted) * c for n, c in counts.items())
    except BttError as exc:
        fail(f"unexpected {type(exc).__name__}: {exc}")
        return out

    out["complete"] = True
    if traced:
        out["spans"] = spans.records
        out["counts"] = {
            "textio.in_bytes": len(w.document.encode()),
            "textio.out_bytes": len(text.encode()),
            "expander.nodes_out": len(names),
            "expander.instances": w.instances,
            "engine.node_ticks_per_tick": node_ticks / w.steady_ticks,
            "exprs.distinct": distinct,
            "exprs.evaluable": evaluable,
            "exprs.evals_per_tick": evals / (w.steady_ticks + 1),
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()
    w = workloads.make(args.workload, args.seed, args.quick)
    out = measure(w, Spans(args.run_id) if args.trace else None)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
