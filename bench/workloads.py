"""Seeded generators for the benchmark's three workloads.

Each workload class turns a seed into a document text, a scenario text and
the expected results, computed here in plain Python from the oracle in
``oracle.py`` or from the naming rules of the template language; nothing
is imported from the compiler under test. The same seed gives the same
texts byte for byte. ``quick=True`` gives a small version of the same
shape for the benchmark's own tests.

Sizes do not depend on the seed, only contents do, so runs with different
seeds do the same amount of work.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import oracle

STATES = ("RUNNING", "SUCCESS", "FAILURE")


def _flow(items):
    return "[" + ", ".join(str(i) for i in items) + "]"


def _quoted(items):
    return "[" + ", ".join('"' + i + '"' for i in items) + "]"


def names_digest(names):
    """SHA-256 of the sorted node names, one per line."""
    return hashlib.sha256("\n".join(sorted(names)).encode()).hexdigest()


def _latch_names(inst, remembered=1):
    # latch(child): a skipper, a guard skipper, one check per remembered state
    return [inst, f"{inst}/saved"] + [f"{inst}/saved/check_{i}" for i in range(remembered)]


def _sequence_star_names(inst, n_children):
    names = [inst]
    for i in range(n_children):
        names += _latch_names(f"{inst}/latch_{i}")
    names += [f"{inst}/reset"] + [f"{inst}/reset/clear_{i}" for i in range(n_children)]
    return names


def value_text(v):
    """Canonical text of a blackboard value, as ``btt run --memory-dump`` prints it."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _same_value(actual, expected):
    # bool and int are distinct value types in the tree language
    return type(actual) is type(expected) and actual == expected


class WideStar:
    """Why: every tick walks thousands of template-generated latch, skipper
    and reset nodes. Engine dispatch and the engine's per-tick events do
    most of the work; the expressions are only ``__STATE__`` reads.

    A ``parallel`` root over 300 ``sequence_star`` instances of 3
    scenario-scripted actions (5,101 expanded nodes). Each action script is
    a seeded mix of RUNNING, SUCCESS and FAILURE that ends in SUCCESS, so
    after the first few ticks every instance runs its full cycle on every
    tick, whatever the seed.
    """

    name = "wide_star"

    def __init__(self, seed, quick=False):
        rng = random.Random(f"{self.name}:{seed}")
        n = 12 if quick else 300
        self.steady_ticks = 30 if quick else 200
        self.cli_ticks = 5 if quick else 10
        self.instances_list = [f"t{i:03d}" for i in range(n)]
        self.scripts = {}
        doc = ["root: fleet", "nodes:", "  fleet:", "    type: parallel",
               f"    children: {_flow(self.instances_list)}"]
        scen = ["actions:"]
        for inst in self.instances_list:
            acts = [f"{inst}_a{j}" for j in range(3)]
            doc.append(f"  {inst}: {{type: sequence_star, children: {_flow(acts)}}}")
            for a in acts:
                doc.append(f"  {a}: {{type: action}}")
                script = rng.choices(STATES, weights=(4, 4, 2), k=rng.randint(2, 8))
                script.append("SUCCESS")
                self.scripts[a] = script
                scen.append(f"  {a}: {_flow(script)}")
        self.document = "\n".join(doc) + "\n"
        self.scenario = "\n".join(scen) + "\n"

        names = ["fleet"]
        for inst in self.instances_list:
            names += _sequence_star_names(inst, 3) + [f"{inst}_a{j}" for j in range(3)]
        self.node_names = names
        self.instances = 5 * n  # each sequence_star holds 3 latches and a reset

        ticks = 1 + self.steady_ticks
        self.instance_results = {}
        for inst in self.instances_list:
            scripts = [self.scripts[f"{inst}_a{j}"] for j in range(3)]
            self.instance_results[inst] = oracle.star(scripts, ticks, "SUCCESS")[0]
        self.root_results = [oracle.parallel([self.instance_results[i][t]
                                              for i in self.instances_list])
                             for t in range(ticks)]

    def tick_ok(self, tick, root, events, memory):
        if root != self.root_results[tick - 1]:
            return False
        got = {e.node: e.result.value for e in events}
        return all(got.get(inst) == self.instance_results[inst][tick - 1]
                   for inst in self.instances_list)

    def final_ok(self, ticks, counts, memory):
        return all(counts.get(a, 0) == c for a, c in self._counts_after(ticks).items())

    def _counts_after(self, ticks):
        out = {}
        for inst in self.instances_list:
            acts = [f"{inst}_a{j}" for j in range(3)]
            _, counts = oracle.star([self.scripts[a] for a in acts], ticks, "SUCCESS")
            out.update(zip(acts, counts))
        return out

    def cli_args(self, doc_path, scenario_path):
        return ["run", doc_path, "--scenario", scenario_path,
                "--ticks", str(self.cli_ticks), "--trace"]

    def cli_ok(self, stdout, serialized_sha256):
        lines = stdout.splitlines()
        if not lines or lines[-1] != f"result={self.root_results[self.cli_ticks - 1]}":
            return False
        counts = Counter()
        roots = {}
        for line in lines[:-1]:
            tick, node, state = line.split("\t")
            counts[node] += 1
            if node == "fleet":
                roots[int(tick)] = state
        expected_roots = dict(enumerate(self.root_results[:self.cli_ticks], start=1))
        return roots == expected_roots and all(
            counts[a] == c for a, c in self._counts_after(self.cli_ticks).items())


CLOCK_PERIOD = 13  # mission_loop's shared clock counts 0..12


class _Lane:
    """Plain-Python model of one mission lane's blackboard keys."""

    def __init__(self, rng):
        self.name = None
        self.step = rng.randint(1, 9)
        self.modulus = rng.randint(17, 97)
        self.limit = rng.randrange(self.modulus)
        self.gain = rng.choice((0.25, 0.5, 0.75))
        self.bar = rng.randint(4, 40) * 0.5
        self.n0 = rng.randrange(self.modulus)
        self.x0 = rng.randint(1, 40) * 0.25

    def reset(self):
        self.n, self.x, self.flag, self.mode, self.runs = self.n0, self.x0, False, "idle", 0

    def tick(self, clock):
        phase = self.n - self.n // CLOCK_PERIOD * CLOCK_PERIOD
        if self.flag and phase > clock and self.mode == "hold":
            return  # the guard holds, so the selector skips the work
        m = self.n + self.step
        self.n = m - m // self.modulus * self.modulus
        self.x = self.x * self.gain + self.n * 0.25
        r = self.runs + 1
        self.runs = r - r // 5 * 5
        self.flag = self.n > self.limit or (self.runs == 0 and self.x >= self.bar)
        self.mode = "hold"

    def values(self):
        p = self.name
        return {f"{p}/n": self.n, f"{p}/x": self.x, f"{p}/flag": self.flag,
                f"{p}/mode": self.mode, f"{p}/runs": self.runs,
                f"{p}/limit": self.limit, f"{p}/gain": self.gain}


class MissionSim:
    """Expected blackboard of ``MissionLoop`` after each tick."""

    def __init__(self, lanes):
        self.lanes = lanes
        self.clock = 0
        for lane in lanes:
            lane.reset()

    def tick(self):
        self.clock = (self.clock + 1) % CLOCK_PERIOD
        for lane in self.lanes:
            lane.tick(self.clock)

    def values(self):
        out = {"clock": self.clock}
        for lane in self.lanes:
            out.update(lane.values())
        return out


class MissionLoop:
    """Why: the same engine with the cost moved into expression evaluation
    and blackboard writes, beside ``wide_star``'s state reads. The tree is
    small, so a front-end change should leave its tick metrics unchanged.

    200 lanes, each a ``selector`` over a guard condition and a
    ``sequence_star`` of two actions whose scripts do integer and float
    arithmetic, ``&&``/``||`` and text and bool writes; the guard branches
    on what the scripts wrote and on a shared clock. An ``init`` action
    behind a ``latch`` sets the blackboard on the first tick only. No
    action is scenario-scripted (the scenario only seeds lane settings),
    and the counters wrap, so the work per tick does not decay. The lane
    settings are one fixed set that the seed shuffles over the lanes: how
    many lanes work in a tick depends on the settings, so drawing them per
    seed moved the tick time by 10% between seeds.
    """

    name = "mission_loop"

    def __init__(self, seed, quick=False):
        rng = random.Random(f"{self.name}:{seed}")
        n = 10 if quick else 200
        self.steady_ticks = 30 if quick else 300
        self.cli_ticks = 10 if quick else 50
        settings = random.Random(f"{self.name}:lanes")
        self.lanes = [_Lane(settings) for _ in range(n)]
        rng.shuffle(self.lanes)
        for j, lane in enumerate(self.lanes):
            lane.name = f"l{j:03d}"
        lane_names = [lane.name for lane in self.lanes]
        init = ["clock := 0"]
        doc = []
        scen = ["memory:"]
        names = ["mission", "clock", "fleet", "init"] + _latch_names("boot", 2)
        for lane in self.lanes:
            p = lane.name
            init += [f"{p}/n := {lane.n0}", f"{p}/x := {lane.x0!r}", f"{p}/flag := false",
                     f"{p}/mode := 'idle'", f"{p}/runs := 0"]
            step = [f"{p}/n := {p}/n + {lane.step} - ({p}/n + {lane.step}) / {lane.modulus}"
                    f" * {lane.modulus}",
                    f"{p}/x := {p}/x * {p}/gain + {p}/n * 0.25"]
            note = [f"{p}/runs := {p}/runs + 1 - ({p}/runs + 1) / 5 * 5",
                    f"{p}/flag := {p}/n > {p}/limit || {p}/runs == 0 && {p}/x >= {lane.bar!r}",
                    f"{p}/mode := 'hold'"]
            doc += [f"  {p}: {{type: selector, children: [{p}/guard, {p}/work]}}",
                    f"  {p}/guard:", "    type: condition",
                    f"    if: \"{p}/flag && {p}/n - {p}/n / {CLOCK_PERIOD} * {CLOCK_PERIOD} > clock"
                    f" && {p}/mode == 'hold'\"",
                    f"  {p}/work: {{type: sequence_star, children: [{p}/step, {p}/note]}}",
                    f"  {p}/step:", "    type: action", f"    script: {_quoted(step)}",
                    f"  {p}/note:", "    type: action", f"    script: {_quoted(note)}"]
            scen += [f"  {p}/limit: {lane.limit}", f"  {p}/gain: {lane.gain!r}"]
            names += [p, f"{p}/guard", f"{p}/step", f"{p}/note"]
            names += _sequence_star_names(f"{p}/work", 2)
        head = ["root: mission", "nodes:",
                "  mission: {type: sequence, children: [boot, clock, fleet]}",
                "  boot: {type: latch, children: [init]}",
                f"  init: {{type: action, script: {_quoted(init)}}}",
                "  clock:", "    type: action",
                "    script: [\"clock := clock + 1 - (clock + 1)"
                f' / {CLOCK_PERIOD} * {CLOCK_PERIOD}"]',
                f"  fleet: {{type: parallel, children: {_flow(lane_names)}}}"]
        self.document = "\n".join(head + doc) + "\n"
        self.scenario = "\n".join(scen) + "\n"
        self.node_names = names
        self.instances = 1 + 4 * n  # boot latch; per lane a sequence_star, 2 latches, a reset
        self.sim = None

    def tick_ok(self, tick, root, events, memory):
        if tick == 1:
            self.sim = MissionSim(self.lanes)
        self.sim.tick()
        return root == "SUCCESS" and all(
            _same_value(memory.get(k), v) for k, v in self.sim.values().items())

    def final_ok(self, ticks, counts, memory):
        # the latch lets init run on the first tick only
        return counts.get("init") == 1 and counts.get("clock") == ticks

    def cli_args(self, doc_path, scenario_path):
        return ["run", doc_path, "--scenario", scenario_path,
                "--ticks", str(self.cli_ticks), "--memory-dump"]

    def cli_ok(self, stdout, serialized_sha256):
        lines = stdout.splitlines()
        if len(lines) < 2 or lines[0] != "---" or lines[-1] != "result=SUCCESS":
            return False
        dump = dict(line.split(" = ", 1) for line in lines[1:-1])
        sim = MissionSim(self.lanes)
        for _ in range(self.cli_ticks):
            sim.tick()
        return all(dump.get(k) == value_text(v) for k, v in sim.values().items())


_ZOO_TEMPLATES = """\
templates:
  probe:
    args:
      - {name: items, kind: scalar-list}
      - {name: floor, kind: scalar, default: 0}
    root: "~"
    nodes:
      "~":
        type: selector
        children: ["$@checks", "~/miss"]
      checks:
        foreach: {list: "$items", var: v, index: k}
        emit: "~/c$k"
        nodes:
          "~/c$k":
            type: condition
            if: "$v > $floor"
      "~/miss":
        type: action
        script: ["$name/missed := true"]
        result: FAILURE
  bank:
    args:
      - {name: steps, kind: nodes}
      - {name: items, kind: scalar-list}
      - {name: floor, kind: scalar, default: 0}
    root: "~"
    nodes:
      "~":
        type: sequence
        children: ["~/probe", "~/steps"]
      "~/probe":
        type: probe
        args: {items: "$items", floor: "$floor"}
      "~/steps":
        type: sequence_star
        children: ["$steps"]
  group:
    args:
      - {name: steps, kind: nodes}
      - {name: items, kind: scalar-list}
      - {name: label, kind: scalar, default: group}
    root: "~"
    nodes:
      "~":
        type: parallel
        children: ["~/bank", "~/note"]
      "~/bank":
        type: bank
        children: ["$steps"]
        args: {items: "$items"}
      "~/note":
        type: action
        script: ["$name/label := '$label'"]
  suite:
    args:
      - {name: steps, kind: nodes}
      - {name: items, kind: scalar-list}
    root: "~"
    nodes:
      "~":
        type: group
        children: ["$steps"]
        args: {items: "$items", label: "~"}
"""


class TemplateZoo:
    """Why: YAML parsing and template substitution do nearly all the work
    (about 10,000 expanded nodes from about 50 KB of input) while a tick
    costs a few milliseconds, so an engine change should show here mainly
    in ``setup_s``.

    User templates nest five levels deep (suite > group > bank > probe, and
    bank > sequence_star > latch/reset). They use ``foreach`` over scalar
    lists of 1,000 to 4,000 elements, variadic ``nodes`` splices, scalar
    defaults, and ``~``/``$name`` substitution. Every list starts with
    200 numbers below the probe's floor and then a positive one, so each
    tick runs the same 201 checks per probe, whatever the seed; ticks much
    shorter than that made the tick percentiles follow sub-millisecond
    stalls of the machine.
    """

    name = "template_zoo"
    STEPS = 3

    def __init__(self, seed, quick=False):
        rng = random.Random(f"{self.name}:{seed}")
        sizes = (20, 30, 40, 50) if quick else (1000, 2000, 3000, 4000)
        self.steady_ticks = 30 if quick else 500
        self.lead = 5 if quick else 200
        self.suites = [f"s{k}" for k in range(len(sizes))]
        doc = [_ZOO_TEMPLATES + "root: zoo", "nodes:",
               f"  zoo: {{type: sequence, children: {_flow(self.suites)}}}"]
        scen = ["memory:"]
        names = ["zoo"]
        for suite, size in zip(self.suites, sizes):
            items = [rng.randint(-99, 0) for _ in range(self.lead)] + [rng.randint(1, 999)]
            items += [rng.randint(-99, 999) for _ in range(size - self.lead - 1)]
            steps = [f"{suite}_step{i}" for i in range(self.STEPS)]
            doc.append(f"  {suite}:")
            doc.append("    type: suite")
            doc.append(f"    children: {_flow(steps)}")
            doc.append(f"    args: {{items: {_flow(items)}}}")
            doc += [f"  {s}: {{type: action}}" for s in steps]
            scen.append(f"  {suite}/label: 'none'")
            bank = f"{suite}/bank"
            names += [suite, bank, f"{bank}/probe", f"{bank}/probe/miss", f"{suite}/note"]
            names += [f"{bank}/probe/c{k}" for k in range(size)]
            names += _sequence_star_names(f"{bank}/steps", self.STEPS) + steps
        self.document = "\n".join(doc) + "\n"
        self.scenario = "\n".join(scen) + "\n"
        self.node_names = names
        # per suite: suite, group, bank, probe, sequence_star, its latches and reset
        self.instances = len(sizes) * (5 + self.STEPS + 1)

    def tick_ok(self, tick, root, events, memory):
        return root == "SUCCESS" and all(memory.get(f"{s}/label") == s for s in self.suites)

    def final_ok(self, ticks, counts, memory):
        checks = [f"{s}/bank/probe/c" for s in self.suites]
        return all(counts.get(f"{c}{self.lead}") == ticks
                   and counts.get(f"{c}{self.lead + 1}", 0) == 0 for c in checks)

    def cli_args(self, doc_path, scenario_path):
        return ["expand", doc_path]

    def cli_ok(self, stdout, serialized_sha256):
        # byte-for-byte equal to serialize_expanded in the worker
        return hashlib.sha256(stdout.encode()).hexdigest() == serialized_sha256


WORKLOADS = {w.name: w for w in (WideStar, MissionLoop, TemplateZoo)}


def make(name, seed, quick=False):
    return WORKLOADS[name](seed, quick)
