"""The reprolint rule set.

Three families, mirroring the determinism contract in
``docs/ARCHITECTURE.md``:

* ``DET0xx`` — determinism: no wall-clock reads, no global-RNG calls,
  no ambient entropy, no randomized-hash ordering, no bare set
  iteration feeding orderings.
* ``LOOP0xx`` — event-loop discipline: no blocking sleeps, no
  threading/async/socket machinery that bypasses the shared simulated
  :class:`~repro.netsim.clock.EventLoop`.
* ``API0xx`` — API discipline: experiment entry points must accept an
  explicit seed and thread explicit ``Random`` instances.
* ``OBS0xx`` — observability discipline: library code reports through
  ``repro.telemetry`` (or returns data to its caller); only CLI entry
  points talk to stdout/stderr directly.
* ``ROB0xx`` — robustness discipline: zone updates go through the
  guarded install seam (validator + last-known-good retention), never
  straight into a ``ZoneStore``; mitigations engage through the
  alert-driven paths (``telemetry.mitigation.arm``, the
  ``control.defense`` ladder), never by direct ``engage()`` calls;
  machine suspend/resume verdicts route through the quorum
  suspension lease (``control.consensus``), never by direct
  ``suspend()``/``resume()`` calls.
"""

from __future__ import annotations

import ast

from .core import Rule, Severity

#: Wall-clock reads. ``time`` on the simulator side must come from
#: ``EventLoop.now``; real time is only legitimate for operator-facing
#: progress reporting, which carries a scoped suppression.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Module-level functions of the stdlib ``random`` module share one
#: hidden global Mersenne Twister; any call makes reproducibility
#: depend on global call order across the whole process.
_GLOBAL_RANDOM = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "getstate", "lognormvariate",
    "normalvariate", "paretovariate", "randbytes", "randint", "random",
    "randrange", "sample", "seed", "setstate", "shuffle", "triangular",
    "uniform", "vonmisesvariate", "weibullvariate",
})

#: numpy.random attributes that are fine to reference: explicit
#: generator construction and types, not the hidden legacy global.
_NUMPY_RANDOM_OK = frozenset({
    "Generator", "default_rng", "RandomState", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})

#: Ambient entropy: different on every call by design.
_ENTROPY = frozenset({
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom",
})

#: Constructors that fall back to OS entropy when called with no seed.
_NEEDS_SEED = frozenset({
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
})

#: Modules whose presence in simulator code means callbacks or I/O are
#: escaping the shared event loop (threads, OS sockets, subprocesses,
#: alternative schedulers).
_LOOP_BYPASS = frozenset({
    "threading", "_thread", "asyncio", "sched", "multiprocessing",
    "concurrent", "concurrent.futures", "socket", "socketserver",
    "subprocess", "selectors", "signal", "queue",
})

#: Simulator packages held to event-loop discipline. Analysis/report
#: and tools are offline post-processing and may do real I/O.
_SIM_SCOPES = (
    "src/repro/netsim/", "src/repro/server/", "src/repro/chaos/",
    "src/repro/control/", "src/repro/platform/", "src/repro/resolver/",
    "src/repro/filters/", "src/repro/workload/", "src/repro/dnscore/",
)


class WallClockRule(Rule):
    code = "DET001"
    name = "wall-clock-read"
    severity = Severity.ERROR
    description = ("Wall-clock reads (time.time, datetime.now, "
                   "perf_counter, ...) make runs irreproducible; use "
                   "EventLoop.now for simulated time. Operator-facing "
                   "progress timing needs an inline suppression.")
    scopes = ("src/repro/",)

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.imports.resolve(node.func)
        if resolved in _WALL_CLOCK:
            self.report(node, f"wall-clock read `{resolved}()`; simulated "
                              f"components must use EventLoop.now")
        self.generic_visit(node)


class GlobalRandomRule(Rule):
    code = "DET002"
    name = "global-random"
    severity = Severity.ERROR
    description = ("Calls on the module-level `random` API or the "
                   "legacy `numpy.random` global state; thread an "
                   "explicit seeded Random/Generator instance instead.")
    scopes = ("src/repro/", "tests/", "benchmarks/")

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.imports.resolve(node.func)
        if resolved:
            if resolved.startswith("random."):
                leaf = resolved.split(".", 1)[1]
                if leaf in _GLOBAL_RANDOM:
                    self.report(node, f"global-RNG call `{resolved}()`; "
                                      f"thread a seeded random.Random "
                                      f"instance instead")
            elif resolved.startswith("numpy.random."):
                leaf = resolved.split("numpy.random.", 1)[1]
                if leaf not in _NUMPY_RANDOM_OK:
                    self.report(node, f"legacy numpy global-RNG call "
                                      f"`{resolved}()`; use a seeded "
                                      f"numpy.random.default_rng(seed)")
        self.generic_visit(node)


class EntropyRule(Rule):
    code = "DET003"
    name = "ambient-entropy"
    severity = Severity.ERROR
    description = ("os.urandom / uuid.uuid1 / uuid.uuid4 / secrets.* / "
                   "random.SystemRandom draw OS entropy and can never "
                   "be reproduced from a seed.")
    scopes = ("src/repro/", "tests/", "benchmarks/")

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.imports.resolve(node.func)
        if resolved and (resolved in _ENTROPY
                         or resolved.startswith("secrets.")):
            self.report(node, f"ambient entropy source `{resolved}()`; "
                              f"derive values from the experiment seed")
        self.generic_visit(node)


class HashOrderingRule(Rule):
    code = "DET004"
    name = "randomized-hash"
    severity = Severity.ERROR
    description = ("Builtin hash() of str/bytes is randomized per "
                   "process (PYTHONHASHSEED); using it for ordering or "
                   "partitioning breaks cross-run determinism. Allowed "
                   "only inside classes defining __hash__ (cache "
                   "idiom).")
    scopes = ("src/repro/",)

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self._hash_class_depth = 0

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        defines_hash = any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "__hash__"
            for stmt in node.body)
        self._hash_class_depth += defines_hash
        self.generic_visit(node)
        self._hash_class_depth -= defines_hash

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name) and node.func.id == "hash"
                and not self.ctx.imports.is_imported("hash")
                and self._hash_class_depth == 0):
            self.report(node, "builtin hash() is salted per process; do "
                              "not use it for ordering or partitioning "
                              "(sort on an explicit key instead)")
        self.generic_visit(node)


class SetIterationRule(Rule):
    code = "DET005"
    name = "unordered-iteration"
    severity = Severity.WARNING
    description = ("Iterating a set literal / set()/frozenset() call "
                   "yields hash order, which varies across processes "
                   "for str keys; wrap in sorted() when the order can "
                   "reach results, tie-breaks, or RNG draws.")
    scopes = ("src/repro/",)

    def _check_iter(self, iter_node: ast.expr) -> None:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            self.report(iter_node, "iteration over a set expression has "
                                   "salted hash order; use sorted(...) "
                                   "or a tuple/list")
        elif (isinstance(iter_node, ast.Call)
              and isinstance(iter_node.func, ast.Name)
              and iter_node.func.id in ("set", "frozenset")
              and not self.ctx.imports.is_imported(iter_node.func.id)):
            self.report(iter_node, f"iteration over bare "
                                   f"`{iter_node.func.id}(...)` has "
                                   f"salted hash order; wrap in "
                                   f"sorted(...)")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp


class UnseededRngRule(Rule):
    code = "DET006"
    name = "unseeded-rng"
    severity = Severity.ERROR
    description = ("random.Random() / numpy.random.default_rng() "
                   "without a seed argument fall back to OS entropy; "
                   "always construct RNGs from an explicit seed.")
    scopes = ("src/repro/", "tests/", "benchmarks/")

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.imports.resolve(node.func)
        if (resolved in _NEEDS_SEED and not node.args
                and not node.keywords):
            self.report(node, f"unseeded `{resolved}()`; pass an "
                              f"explicit seed derived from the "
                              f"experiment seed")
        self.generic_visit(node)


class SleepRule(Rule):
    code = "LOOP001"
    name = "blocking-sleep"
    severity = Severity.ERROR
    description = ("time.sleep() blocks the real thread; simulated "
                   "delays must be scheduled on the shared EventLoop "
                   "via call_later/call_at.")
    scopes = ("src/repro/",)

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.imports.resolve(node.func)
        if resolved in ("time.sleep", "asyncio.sleep"):
            self.report(node, f"blocking `{resolved}()`; schedule on "
                              f"the shared EventLoop "
                              f"(call_later/call_at) instead")
        self.generic_visit(node)


class LoopBypassRule(Rule):
    code = "LOOP002"
    name = "event-loop-bypass"
    severity = Severity.ERROR
    description = ("Importing threading/asyncio/sched/socket/subprocess "
                   "etc. inside simulator packages means callbacks or "
                   "I/O escape the deterministic EventLoop.")
    scopes = _SIM_SCOPES

    def _check(self, node: ast.AST, module: str) -> None:
        root = module.split(".")[0]
        if root in _LOOP_BYPASS or module in _LOOP_BYPASS:
            self.report(node, f"import of `{module}` bypasses the "
                              f"shared deterministic EventLoop; "
                              f"simulator code must schedule through "
                              f"netsim.clock")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module:
            self._check(node, node.module)


class SeedParamRule(Rule):
    code = "API001"
    name = "seedless-entry-point"
    severity = Severity.ERROR
    description = ("Experiment entry points (module-level `run(...)` in "
                   "experiments/) must accept an explicit `seed` "
                   "parameter or a `params` object carrying one, and "
                   "thread it into every RNG they construct.")
    scopes = ("src/repro/experiments/",)

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "run":
                args = stmt.args
                names = {a.arg for a in (args.posonlyargs + args.args
                                         + args.kwonlyargs)}
                if not names & {"seed", "params"}:
                    self.report(stmt, "experiment entry point run() "
                                      "takes neither `seed` nor "
                                      "`params`; reproducibility "
                                      "requires an explicit seed")
        # no generic_visit: only module-level `run` is an entry point


#: CLI entry points: the only places in ``src/repro`` allowed to call
#: bare ``print()``. Everything else reports through the telemetry
#: pipeline or returns data for the caller to render.
_PRINT_ENTRY_POINTS = (
    "src/repro/tools/",
    "src/repro/lint/cli.py",
    "src/repro/experiments/runner.py",
    "src/repro/experiments/resilience_scorecard.py",
)


class BarePrintRule(Rule):
    code = "OBS001"
    name = "bare-print"
    severity = Severity.ERROR
    description = ("print() in library code bypasses the telemetry "
                   "pipeline and pollutes experiment stdout; record "
                   "through repro.telemetry or return data to the CLI "
                   "layer. Entry-point modules (tools/, lint/cli.py, "
                   "experiments/runner.py, resilience_scorecard.py) are "
                   "exempt.")
    scopes = ("src/repro/",)

    @classmethod
    def applies_to(cls, path: str) -> bool:
        if not super().applies_to(path):
            return False
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return not any(f"/{entry}" in norm
                       for entry in _PRINT_ENTRY_POINTS)

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name) and node.func.id == "print"
                and not self.ctx.imports.is_imported("print")):
            self.report(node, "bare print() outside a CLI entry point; "
                              "emit through repro.telemetry (metrics, "
                              "spans, exporters) or return the data to "
                              "the caller")
        self.generic_visit(node)


#: The one module allowed to drive zone installs directly: the
#: safe-rollout release train (validation lives inside
#: ``NameserverMachine.install_zone``, which rollout deliveries use).
_ZONE_INSTALL_EXEMPT = (
    "src/repro/control/rollout.py",
)

#: Receiver names that identify a zone-store ``add`` call site.
_ZONE_STORE_NAMES = frozenset({"store", "zone_store"})


class ZoneInstallRule(Rule):
    code = "ROB001"
    name = "unguarded-zone-install"
    severity = Severity.ERROR
    description = ("Direct ZoneStore.add() calls skip the safe-rollout "
                   "validator (dnscore.validate) and the last-known-good "
                   "retention that makes rollback possible; route zone "
                   "updates through NameserverMachine.install_zone or "
                   "the rollout train. Build-time bootstrap sites carry "
                   "an inline suppression.")
    scopes = ("src/repro/",)

    @classmethod
    def applies_to(cls, path: str) -> bool:
        if not super().applies_to(path):
            return False
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return not any(f"/{entry}" in norm
                       for entry in _ZONE_INSTALL_EXEMPT)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "add":
            receiver = func.value
            is_store = (
                (isinstance(receiver, ast.Name)
                 and receiver.id in _ZONE_STORE_NAMES)
                or (isinstance(receiver, ast.Attribute)
                    and receiver.attr in _ZONE_STORE_NAMES))
            if is_store:
                self.report(node, "direct zone-store add() bypasses the "
                                  "rollout validator and last-known-good "
                                  "retention; install through "
                                  "NameserverMachine.install_zone")
        self.generic_visit(node)


#: The modules allowed to drive mitigations directly: the
#: ``Mitigator`` base class, whose raise/clear wiring calls its own
#: engage/stand-down, and the defense ladder's controller (which owns
#: hysteresis, soak, ordering, and the collateral-damage guardrail).
_ENGAGE_EXEMPT = (
    "src/repro/control/defense.py",
    "src/repro/telemetry/mitigation.py",
)

#: Receiver names that identify a mitigation-engage call site.
_MITIGATOR_NAMES = frozenset({"mitigator", "arm", "rung"})


def _is_mitigator_name(identifier: str) -> bool:
    return (identifier in _MITIGATOR_NAMES
            or identifier.endswith("_mitigator")
            or identifier.endswith("_arm")
            or identifier.endswith("_rung"))


class MitigatorEngageRule(Rule):
    code = "ROB002"
    name = "unguarded-mitigation-engage"
    severity = Severity.ERROR
    description = ("Direct Mitigator/DefenseRung engage() calls skip the "
                   "hysteresis, soak ordering, symmetric unwind and "
                   "collateral-damage guardrail that keep mitigations "
                   "from flapping or getting stuck; drive them through "
                   "telemetry.mitigation.arm or control.defense."
                   "DefenseController. Legitimate test/bootstrap sites "
                   "carry an inline suppression.")
    scopes = ("src/repro/", "tests/", "benchmarks/")

    @classmethod
    def applies_to(cls, path: str) -> bool:
        if not super().applies_to(path):
            return False
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return not any(f"/{entry}" in norm
                       for entry in _ENGAGE_EXEMPT)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in ("engage", "stand_down")):
            receiver = func.value
            is_mitigator = (
                (isinstance(receiver, ast.Name)
                 and _is_mitigator_name(receiver.id))
                or (isinstance(receiver, ast.Attribute)
                    and _is_mitigator_name(receiver.attr)))
            if is_mitigator:
                self.report(node, f"direct mitigation `{func.attr}()` "
                                  f"bypasses the alert-driven engage "
                                  f"path (hysteresis, soak, guardrail); "
                                  f"arm it via telemetry.mitigation.arm "
                                  f"or control.defense.DefenseController")
        self.generic_visit(node)


#: Modules allowed to drive machine suspend/resume directly: the
#: gray-failure verdict controller (every transition it makes is
#: already gated on a quorum lease) and the restart/recovery flows.
_SUSPEND_EXEMPT = (
    "src/repro/control/grayfail.py",
    "src/repro/control/recovery.py",
)

#: Receiver names that identify a nameserver-machine call site.
def _is_machine_name(identifier: str) -> bool:
    return identifier == "machine" or identifier.endswith("_machine")


class SuspensionPathRule(Rule):
    code = "ROB003"
    name = "unguarded-suspension"
    severity = Severity.ERROR
    description = ("Direct NameserverMachine.suspend()/resume() calls "
                   "skip the quorum lease that bounds how much capacity "
                   "may be down at once (section 4.2.2); route verdicts "
                   "through control.consensus.SuspensionCoordinator "
                   "(request/release) and suspend only on a grant. "
                   "Grant-guarded sites carry an inline suppression.")
    scopes = ("src/repro/",)

    @classmethod
    def applies_to(cls, path: str) -> bool:
        if not super().applies_to(path):
            return False
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return not any(f"/{entry}" in norm
                       for entry in _SUSPEND_EXEMPT)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in ("suspend", "resume")):
            receiver = func.value
            is_machine = (
                (isinstance(receiver, ast.Name)
                 and _is_machine_name(receiver.id))
                or (isinstance(receiver, ast.Attribute)
                    and _is_machine_name(receiver.attr)))
            if is_machine:
                self.report(node, f"direct machine `{func.attr}()` "
                                  f"bypasses the quorum suspension lease "
                                  f"(capacity bound); request a lease "
                                  f"from the SuspensionCoordinator and "
                                  f"act only on a grant")
        self.generic_visit(node)


ALL_RULES: tuple[type[Rule], ...] = (
    WallClockRule,
    GlobalRandomRule,
    EntropyRule,
    HashOrderingRule,
    SetIterationRule,
    UnseededRngRule,
    SleepRule,
    LoopBypassRule,
    SeedParamRule,
    BarePrintRule,
    ZoneInstallRule,
    MitigatorEngageRule,
    SuspensionPathRule,
)


def rule_by_code(code: str) -> type[Rule]:
    for rule in ALL_RULES:
        if rule.code == code:
            return rule
    raise KeyError(f"unknown rule code {code!r}")
