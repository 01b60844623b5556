"""Reference semantics of the Node* controls and of Parallel, for checking.

This is a copy kept beside the benchmark on purpose: the benchmark checks
the compiler's output against it, so it must not import any part of the
compiler under test. States are plain strings ("SUCCESS", "FAILURE",
"RUNNING", "EMPTY").
"""

from __future__ import annotations


def star(scripts, ticks, remember_on):
    """Simulate a Node* control with memory over scripted children.

    Per tick, children whose last result was ``remember_on`` are skipped;
    the first other child consumes the next entry of its script (the last
    entry repeats). A result other than ``remember_on`` is returned at once
    and memory is kept. When every child has returned ``remember_on``, all
    memory clears and ``remember_on`` is returned, so the next tick starts
    over. Sequence* remembers SUCCESS; Selector* remembers FAILURE.

    Returns (per-tick results, per-child tick counts).
    """
    n = len(scripts)
    cursors = [0] * n
    remembered = [False] * n
    results = []
    for _ in range(ticks):
        outcome = None
        for i in range(n):
            if remembered[i]:
                continue
            script = scripts[i]
            r = script[min(cursors[i], len(script) - 1)]
            cursors[i] += 1
            if r == remember_on:
                remembered[i] = True
                continue
            outcome = r
            break
        if outcome is None:
            remembered = [False] * n
            outcome = remember_on
        results.append(outcome)
    return results, cursors


def parallel(results):
    """Parallel ticks every child: FAILURE beats RUNNING beats SUCCESS beats EMPTY."""
    for state in ("FAILURE", "RUNNING", "SUCCESS"):
        if state in results:
            return state
    return "EMPTY"
