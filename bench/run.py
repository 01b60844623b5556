"""Benchmark for btt: seeded workloads, end-to-end and per-layer figures.

Usage, from the root of a checkout:

    python3 bench/run.py --workload wide_star --seed 1 --seconds 40 --trace 0

``--workload`` is one of the names in ``BENCHMARK.json`` (or ``all``, which
runs each in turn). The run repeats rounds until ``--seconds`` is used up
(at least two rounds). A round starts ``worker.py`` in a fresh process,
which sets the workload up from its text and ticks it, and then times the
workload's ``btt`` command twice as a subprocess (``python -m btt.cli`` with
``src`` on ``PYTHONPATH``). Processes run one at a time. While each runs, a
thread of this process probes the machine's speed, and every time the
process measured is scaled to one reference speed (see ``calibrate.py``).

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` each round also runs a traced worker, which records spans
around every call into a ``btt`` module, and a bare ``import btt.cli``;
the result holds the per-layer metrics, including the tracing overhead
(traced minus untraced ``setup_s`` and ``tick_ms_p50``). Both modes print
a table of every figure they have, by name and unit, with the
environment; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A JSON record with
the environment, the samples, the raw (unscaled) times and any spans is
written to ``bench/out/``.

An operation is each compile, each checked tick, each per-node count
check and each CLI call. A wrong result, a ``BttError``, a crashed or
timed-out process or a non-zero exit fails it. ``ok_ratio`` is the share
that succeeded (the fail ratio is ``failed``/``attempted``).

``--quick`` runs small versions of the workloads for the benchmark's own
tests (``python3 -m pytest bench``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
MIN_ROUNDS = 2
TIMEOUT_S = 120
STARTUP_PROBES = 3
CLI_CALLS = 2  # per round: a CLI call is shorter and noisier than a worker


def environment():
    import yaml

    return {
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _p95(values):
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


class Run:
    """Runs the processes of one benchmark run and keeps what they report.

    Every process runs while a ``calibrate.Sampler`` probes the machine's
    speed, and its intervals are scaled to reference speed.
    """

    def __init__(self, w, seed, quick, scratch):
        self.w = w
        self.seed = seed
        self.quick = quick
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.workers = {0: [], 1: []}
        self.cli_s = []
        self.cli_raw_s = []
        self.startup_s = []
        self.serialized_sha256 = None

    def _fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def _spawn(self, argv):
        """Run a process to its end; return its exit code (None on timeout),
        stdout, stderr, the speed timeline and its (start, end) in ns."""
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            with calibrate.Sampler() as timeline:
                start = time.perf_counter_ns()
                proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
                try:
                    code = proc.wait(timeout=TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=TIMEOUT_S)
                    code = None
                end = time.perf_counter_ns()
        return (code, out_path.read_bytes().decode(), err_path.read_bytes().decode(),
                timeline, (start, end))

    def worker(self, trace):
        n = len(self.workers[0]) + len(self.workers[1])
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", self.w.name,
                "--seed", str(self.seed), "--trace", str(trace),
                "--run-id", f"{self.w.name}-{self.seed}-{n}"]
        if self.quick:
            argv.append("--quick")
        code, stdout, stderr, timeline, _ = self._spawn(argv)
        try:
            if code != 0:
                raise ValueError
            out = json.loads(stdout.splitlines()[-1])
        except (ValueError, IndexError):
            self.attempted += 1
            self._fail(f"worker (trace {trace}): " + ("timed out" if code is None
                                                       else stderr[-400:]))
            return
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.errors += out["errors"]
        if out.get("serialized_sha256"):
            self.serialized_sha256 = out["serialized_sha256"]
        if out.get("complete"):
            self.workers[trace].append(_scaled(out, timeline))

    def cli(self):
        argv = [sys.executable, "-m", "btt.cli",
                *self.w.cli_args(str(self.scratch / "document.yaml"),
                                 str(self.scratch / "scenario.yaml"))]
        code, stdout, stderr, timeline, interval = self._spawn(argv)
        self.attempted += 1
        if code is None:
            self._fail("btt CLI timed out")
        elif code != 0:
            self._fail(f"btt CLI exit {code}: {stderr[-400:]}")
        elif not self.w.cli_ok(stdout, self.serialized_sha256):
            self._fail("btt CLI output differs from the expectation")
        else:
            self.cli_s.append(timeline.scale(*interval) / 1e9)
            self.cli_raw_s.append((interval[1] - interval[0]) / 1e9)

    def startup(self):
        code, _, _, timeline, interval = self._spawn([sys.executable, "-c", "import btt.cli"])
        if code == 0:
            self.startup_s.append(timeline.scale(*interval) / 1e9)


def _scaled(out, timeline):
    """A worker's figures, with every interval at reference speed."""
    ticks = [timeline.scale(*interval) / 1e6 for interval in out["ticks"]]
    raw_ticks = sorted((end - start) / 1e6 for start, end in out["ticks"])
    setup = [out["stages"][name] for name in out["setup"]]
    figures = {
        "setup_s": sum(timeline.scale(*interval) for interval in setup) / 1e9,
        "setup_raw_s": sum(end - start for start, end in setup) / 1e9,
        "ticks_ms": ticks,
        "tick_raw_ms_p50": statistics.median(raw_ticks),
        "rss_mb": out["rss_mb"],
    }
    if "spans" in out:
        own = spans.self_times(out["spans"], timeline.scale)
        counts = out["counts"]
        layers = {f"{name}_s": ns / 1e9 for name, ns in own.items()}
        layers.update(counts)
        layers["engine.us_per_node_tick"] = (
            sum(ticks) * 1e3 / (counts["engine.node_ticks_per_tick"] * len(ticks)))
        layers["exprs.parse_us"] = own["exprs.parse"] / 1e3 / max(counts["exprs.distinct"], 1)
        layers["exprs.eval_us"] = own["exprs.eval"] / 1e3 / max(counts["exprs.evaluable"], 1)
        figures["layers"] = layers
        figures["spans"] = out["spans"]
    return figures


def _ticks(workers):
    return [t for figures in workers for t in figures["ticks_ms"]]


def end_to_end(r):
    ticks = _ticks(r.workers[0])
    return {
        "setup_s": statistics.median(f["setup_s"] for f in r.workers[0]),
        "tick_ms_p50": statistics.median(ticks),
        "tick_ms_p95": _p95(ticks),
        "peak_rss_mb": statistics.median(f["rss_mb"] for f in r.workers[0]),
        "cli_s": statistics.median(r.cli_s),
        "ok_ratio": (r.attempted - r.failed) / r.attempted,
    }


def per_layer(r, names):
    traced = r.workers[1]
    values = {name: statistics.median(f["layers"][name] for f in traced)
              for name in names if name in traced[0]["layers"]}
    values["cli.startup_s"] = statistics.median(r.startup_s)
    untraced = end_to_end(r)
    values["trace.overhead_setup_s"] = (
        statistics.median(f["setup_s"] for f in traced) - untraced["setup_s"])
    values["trace.overhead_tick_ms_p50"] = (
        statistics.median(_ticks(traced)) - untraced["tick_ms_p50"])
    return values


def run_workload(name, seed, seconds, trace, quick, spec):
    """Run one workload, write its record and print its table; return the result line."""
    w = workloads.make(name, seed, quick)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{name}-{seed}-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    (scratch / "document.yaml").write_text(w.document, encoding="utf-8")
    (scratch / "scenario.yaml").write_text(w.scenario, encoding="utf-8")
    r = Run(w, seed, quick, scratch)
    start = time.monotonic()
    rounds = 0
    try:
        while True:
            order = (0, 1) if rounds % 2 == 0 else (1, 0)
            for mode in order:
                if mode == 0 or trace:
                    r.worker(mode)
            if trace:
                for _ in range(STARTUP_PROBES):
                    r.startup()
            for _ in range(CLI_CALLS):
                r.cli()
            rounds += 1
            elapsed = time.monotonic() - start
            # stop before a round that would end after --seconds
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "quick": quick, "environment": environment(), "rounds": rounds,
        "attempted": r.attempted, "failed": r.failed, "errors": r.errors,
        "setup_s_samples": [f["setup_s"] for f in r.workers[0]],
        "steady_tick_samples": len(_ticks(r.workers[0])),
        "cli_s_samples": r.cli_s,
        "raw": {
            "setup_s": [f["setup_raw_s"] for f in r.workers[0]],
            "tick_ms_p50": [f["tick_raw_ms_p50"] for f in r.workers[0]],
            "scaled_tick_ms_p50": [statistics.median(f["ticks_ms"]) for f in r.workers[0]],
            "cli_s": r.cli_raw_s,
        },
    }
    have = r.workers[0] and r.cli_s and (not trace or (r.workers[1] and r.startup_s))
    metrics = {}
    if have:
        metrics = end_to_end(r)
        record["end_to_end"] = metrics
        if trace:
            metrics = per_layer(r, [m["name"] for m in spec["per_layer"]])
            record["per_layer"] = metrics
            record["layers"] = [f["layers"] for f in r.workers[1]]
            record["spans"] = [s for f in r.workers[1] for s in f["spans"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    line = {
        "correct": bool(have) and r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _print_table(record, units)
    return line


def _print_table(record, units):
    env = record["environment"]
    print(f"env: python {env['python']}, PyYAML {env['pyyaml']}, "
          f"libyaml {env['libyaml']}, nproc {env['nproc']}, {env['machine']}")
    print(f"{record['workload']} seed {record['seed']}: {record['rounds']} rounds, "
          f"{len(record['setup_s_samples'])} untraced setups, "
          f"{record['steady_tick_samples']} steady ticks, "
          f"{len(record['cli_s_samples'])} CLI calls; "
          f"fail_ratio {record['failed']} of {record['attempted']}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")
    for section in ("end_to_end", "per_layer"):
        for k, v in record.get(section, {}).items():
            print(f"  {k:<30} {v:>14.6g} {units[k]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="btt benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "btt" / "__init__.py").is_file():
        print(f"error: no btt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [wl["name"] for wl in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {', '.join(names)} or all")

    if args.workload != "all":
        line = run_workload(args.workload, args.seed, args.seconds, args.trace,
                            args.quick, spec)
    else:
        line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            one = run_workload(name, args.seed, args.seconds, args.trace, args.quick, spec)
            line["correct"] &= one["correct"]
            line["attempted"] += one["attempted"]
            line["failed"] += one["failed"]
            line["metrics"].update({f"{name}/{k}": v for k, v in one["metrics"].items()})
    if not line["metrics"]:
        print("error: nothing could be measured", file=sys.stderr)
        return 1
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
