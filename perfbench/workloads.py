"""The benchmark's three workloads, one per kind of eidothermo user.

Each workload is one client in a closed loop in a single process: the
next op starts when the previous one has returned.  Constructing a
workload is its set-up (import, model construction, input generation);
``op(i)`` runs op number ``i`` and returns its output, and ``check(i,
output)`` returns None when the output is right and a reason otherwise.
A workload is built for a number of cycles and runs exactly
``ops = cycles * cycle`` ops, so that every run covers the same mix of
op kinds and the run length never depends on how fast the program or
the machine is.  ``nominal_cycle_s`` is the CPU time one cycle took at
the commit that defined the benchmark; ``cycles_for`` turns a run length
in seconds into a cycle count with it.

* ``irrev-brackets``: a library caller looping ``irreversibility_estimate``
  on the criterion-7 draw.  One ``MacroModel`` is shared by all ops, as a
  caller would share it, so its per-instance caches (uniform-factor and
  prime-entropy caches, registry content/entropy caches) are warm after
  the first cycle.  A cycle is the first pairs of the criterion-7 draw
  (acceptance seed 42), each once, in an order drawn from the seed.
* ``suites``: the axiom and theorem suites, one check case per op, on
  ``MacroModel``, ``QuantumModel`` and the three harness mutants.  A
  run covers the first cases of each check of the acceptance suites
  (criteria 1, 2 and 12, suite seed 42), in rounds ordered by the seed.
  Each model is built once and serves all its cases, as in a suite run,
  so its per-instance caches (information states, factor caches) are
  warm after the first round.
* ``cli-szilard``: ``eidothermo`` commands on ``scenarios/szilard.txt``,
  each in a fresh interpreter, so every op starts with cold caches and
  pays interpreter start and import, as every user invocation does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO = "src/eidothermo/scenarios/szilard.txt"
GOLDEN = Path(__file__).resolve().parent / "golden" / "szilard.json"

#: Largest time one CLI child may take before it counts as failed.
CHILD_TIMEOUT_S = 150


def cycles_for(cls, seconds: float) -> int:
    """Whole cycles of workload class ``cls`` in about ``seconds``."""
    return max(1, round(seconds / cls.nominal_cycle_s))


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first,
    and the default interval-precision cap."""
    env = dict(os.environ)
    env.pop("EIDOTHERMO_MAX_BITS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class IrrevBrackets:
    name = "irrev-brackets"
    ops_in_children = False
    #: Pairs per cycle.  A bracket's cost varies about threefold with the
    #: pair, so a seed-drawn pair set would move the throughput by which
    #: pairs were drawn; every run uses the same pairs instead.
    cycle = 12
    nominal_cycle_s = 5.3
    trace_cycles = 1
    q_max = 64
    #: The seed of the criterion-7 draw.
    draw_seed = 42

    def __init__(self, seed: int, cycles: int):
        from eidothermo import engine
        from eidothermo.macro import MacroModel

        self.engine = engine
        self.model = MacroModel()
        self.ops = cycles * self.cycle
        draw = random.Random(self.draw_seed)
        pairs = []
        for _ in range(self.cycle):
            q = draw.randint(1, 3)
            a = self.model.random_state_with_content(draw, q)
            b = self.model.random_state_with_content(draw, q)
            pairs.append((a, b))
        rng = random.Random(seed)
        self.inputs = []
        for _ in range(cycles):
            order = list(pairs)
            rng.shuffle(order)
            self.inputs += order

    def label(self, i: int) -> str:
        return "irreversibility_estimate"

    def span(self, i: int) -> str:
        return "op"

    def op(self, i: int):
        a, b = self.inputs[i]
        est = self.engine.irreversibility_estimate(a, b, self.q_max, self.model)
        return est.lower, est.upper

    trace_op = op

    def check(self, i: int, output):
        a, b = self.inputs[i]
        lower, upper = output
        target = self.model.registry.s_value(b) - self.model.registry.s_value(a)
        if not lower <= target <= upper:
            return f"bracket [{lower}, {upper}] misses S(b) - S(a) = {target}"
        if upper - lower > Fraction(2, self.q_max):
            return f"bracket [{lower}, {upper}] is wider than 2/{self.q_max}"
        return None

    def inconclusive(self, output) -> bool:
        return False

    def final_failures(self) -> list:
        return []


def suite_model_classes() -> tuple:
    """The two sound models, then the three deliberately broken ones."""
    from eidothermo import harness
    from eidothermo.macro import MacroModel
    from eidothermo.quantum import QuantumModel

    return (MacroModel, QuantumModel, harness.MutantDropContentCriterion,
            harness.MutantFlippedEntropyOrder, harness.MutantWeightedRecords)


class Suites:
    name = "suites"
    ops_in_children = False
    nominal_cycle_s = 0.11
    trace_cycles = 40
    #: The suite seed of the acceptance criteria 1, 2 and 12.
    suite_seed = 42

    def __init__(self, seed: int, cycles: int):
        from eidothermo import harness
        from eidothermo.exact import PrecisionExhausted

        self.harness = harness
        self.precision_exhausted = PrecisionExhausted
        self.models = tuple(cls() for cls in suite_model_classes())
        self.sound = {"macro", "quantum"}
        self.config = harness.SuiteConfig(seed=self.suite_seed)
        self.n_checks = len(harness.AXIOM_CHECKS) + len(harness.THEOREM_CHECKS)
        self.cycle = len(self.models) * self.n_checks
        self.ops = cycles * self.cycle
        # Every run covers case indices 0 .. cycles-1 of the acceptance
        # suite; the seed orders them.  One case's cost is heavy-tailed
        # (Axiom 7 on the weighted-records mutant: median 1 ms, p97
        # 250 ms), so with a seed-drawn case set the tail would measure
        # which cases were drawn more than the code.
        self.rounds = list(range(cycles))
        random.Random(seed).shuffle(self.rounds)
        self.caught = set()

    def _case(self, i: int):
        cycle, rest = divmod(i, self.cycle)
        model_index, check_index = divmod(rest, self.n_checks)
        return self.rounds[cycle], self.models[model_index], check_index

    def label(self, i: int) -> str:
        return self._case(i)[1].name

    def span(self, i: int) -> str:
        return f"harness.model.{self.label(i)}"

    def op(self, i: int):
        """Case ``index`` of one check on one model, seeded and classified
        exactly as the harness's own suite runner does it."""
        index, model, check_index = self._case(i)
        # Looked up per op, so that a traced run sees the wrapped checks.
        checks = self.harness.AXIOM_CHECKS + self.harness.THEOREM_CHECKS
        check_id, fn = checks[check_index]
        rng = random.Random(self.harness._case_seed(self.config.seed, check_id, index))
        try:
            outcome = fn(model, self.config, rng)
        except self.harness.InconclusiveCase as exc:
            return ("inconclusive", str(exc))
        except self.precision_exhausted as exc:
            return ("inconclusive", f"precision exhausted: {exc}")
        if outcome is None:
            return ("pass",)
        return ("counterexample",) + tuple(outcome)

    trace_op = op

    def check(self, i: int, output):
        model = self._case(i)[1]
        if output[0] != "counterexample":
            return None
        if model.name in self.sound:
            return f"counterexample on the sound {model.name} model: {output[1:]}"
        self.caught.add(model.name)
        return None

    def inconclusive(self, output) -> bool:
        return output[0] == "inconclusive"

    def final_failures(self) -> list:
        return [f"mutant {m.name} yielded no counterexample"
                for m in self.models
                if m.name not in self.sound and m.name not in self.caught]


def scenario_classifications(text: str) -> list:
    """(a, b, label) for each 'classify A B -> label' comment line."""
    found = []
    for line in text.splitlines():
        m = re.match(r"#\s+classify\s+(\S+)\s+(\S+)\s+->\s+(.+?)\s*(\(.*)?$", line)
        if m:
            found.append((m.group(1), m.group(2), m.group(3)))
    return found


#: Commands after the classifications; their outputs are in the golden file.
CLI_COMMANDS = (
    ("entropy", "Ib"),
    ("prob", "r0", "Ib"),
    ("prob-report", "Ib"),
    ("landauer", "v0", "v"),
    ("irrev", "v0", "v", "--qmax", "64"),
    ("check-axioms", "--cases", "5"),
    ("demon", "r", "Ib", "--nmax", str(2**10)),
    ("demon", "r", "Ib", "--nmax", str(2**14)),
    ("demon", "r", "Ib", "--nmax", str(2**16)),
)

#: What the ``eidothermo`` console script runs.
CONSOLE_SCRIPT = "import sys; from eidothermo.cli import main; sys.exit(main())"


class CliSzilard:
    name = "cli-szilard"
    ops_in_children = True
    #: A cycle has a few slow commands among many fast ones, so the tail
    #: percentile depends on how many cycles run: the count must not
    #: depend on how fast the machine happens to be during the run.
    nominal_cycle_s = 11.0
    trace_cycles = 1

    def __init__(self, seed: int, cycles: int):
        text = (ROOT / SCENARIO).read_text(encoding="utf-8")
        self.expected = {}
        commands = []
        classifications = scenario_classifications(text)
        if not classifications:
            raise ValueError(f"{SCENARIO} lists no expected classifications")
        for a, b, label in classifications:
            commands.append(("classify", a, b))
            self.expected[commands[-1]] = (label + "\n").encode()
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["stdout"]
        for command in CLI_COMMANDS:
            commands.append(command)
            self.expected[command] = golden[" ".join(command)].encode()
        self.commands = tuple(commands)
        self.cycle = len(self.commands)
        self.ops = cycles * self.cycle
        self._rng = random.Random(seed)
        self._orders = []
        self.env = child_env()

    def command(self, i: int) -> tuple:
        """Each cycle runs every command once, in a seeded order."""
        cycle, j = divmod(i, len(self.commands))
        while len(self._orders) <= cycle:
            order = list(self.commands)
            self._rng.shuffle(order)
            self._orders.append(order)
        return self._orders[cycle][j]

    def argv(self, i: int) -> list:
        return [*self.command(i), "--scenario", SCENARIO]

    def label(self, i: int) -> str:
        return " ".join(self.command(i))

    def span(self, i: int) -> str:
        return "op"

    def op(self, i: int):
        proc = subprocess.run(
            [sys.executable, "-c", CONSOLE_SCRIPT, *self.argv(i)],
            cwd=ROOT, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def trace_op(self, i: int):
        """The same command in this process, so its handler can be traced."""
        from eidothermo import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv(i))
        return code, out.getvalue().encode()

    def check(self, i: int, output):
        code, stdout = output
        if code != 0:
            return f"{self.label(i)}: exit code {code}"
        if stdout != self.expected[self.command(i)]:
            return f"{self.label(i)}: output differs from the expected bytes"
        return None

    def inconclusive(self, output) -> bool:
        return False

    def final_failures(self) -> list:
        return []


WORKLOADS = {w.name: w for w in (IrrevBrackets, Suites, CliSzilard)}
