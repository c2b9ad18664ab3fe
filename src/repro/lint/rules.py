"""The determinism & simulation-invariant rules (RL001–RL012).

Each rule encodes one invariant the reproduction depends on.  RL001 and
RL004 directly guard the bit-identical parallel/cached-run guarantee from
PR 1; the others close the remaining nondeterminism channels (wall-clock
time, unordered iteration, hidden environment inputs, swallowed engine
errors) and keep the content-addressed cache key complete (RL006).

Rules are pure AST analyses — nothing here imports or executes the code
under inspection.  See ``docs/linting.md`` for the full rationale of every
rule and the suppression syntax.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.astutils import (
    is_classvar_annotation,
    is_dataclass_decorator,
    iteration_sites,
)
from repro.lint.base import (
    ModuleContext,
    ProjectContext,
    Rule,
    Violation,
    register,
)

#: Modules that run *inside* simulated time: they may consume only the
#: simulation clock and named RNG streams, never ambient host state.
CORE_SIM_SCOPE: Tuple[str, ...] = (
    "repro.sim",
    "repro.model",
    "repro.policies",
    "repro.queueing",
    "repro.workloads",
)

#: Modules whose job is aggregating floating-point results across
#: replications/batches — where ``sum()`` order-dependence breaks the
#: permutation-invariance the parallel runner relies on.
AGGREGATION_SCOPE: Tuple[str, ...] = (
    "repro.sim.stats",
    "repro.sim.monitor",
    "repro.model.metrics",
    "repro.experiments.common",
    "repro.experiments.parallel",
)

#: Modules holding the dataclasses that parameterize or summarize runs;
#: every field must be covered by ``repro.model.serialization`` so the
#: content-addressed cache key (and archived results) stay complete.
SERIALIZED_DATACLASS_SCOPE: Tuple[str, ...] = (
    "repro.model.config",
    "repro.model.metrics",
    "repro.sim.stats",
    "repro.experiments.common",
    "repro.workloads.arrivals",
    "repro.workloads.spec",
    "repro.ablation.spec",
    "repro.telemetry.tracing.spans",
    "repro.telemetry.tracing.decisions",
)

SERIALIZATION_MODULE = "repro.model.serialization"

#: Modules whose string constants count as serialized field coverage.
#: Study specs serialize themselves (``repro.ablation.spec`` holds both
#: the dataclasses and their JSON round-trip), and the tracing exporters
#: own the span/decision-record round-trip, so all three feed RL006.
SERIALIZATION_MODULES: Tuple[str, ...] = (
    SERIALIZATION_MODULE,
    "repro.ablation.spec",
    "repro.telemetry.tracing.export",
)


@register
class GlobalRandomState(Rule):
    """RL001 — samplers must draw from named streams, not global RNG state.

    ``random.random()``/``random.seed()``/``numpy.random.*`` module
    functions share hidden global state: any new call site perturbs every
    subsequent draw, silently changing results and breaking common random
    numbers across policies.  All sampling must go through a
    ``random.Random`` stream obtained from ``sim.rng.stream(name)``.
    """

    code = "RL001"
    name = "no-global-rng"
    summary = (
        "no global RNG state (random.* / numpy.random.* module functions); "
        "sample via sim.rng.stream(name)"
    )
    scope = ("repro",)

    _ALLOWED: FrozenSet[str] = frozenset(
        {
            "random.Random",  # constructing an owned stream is the fix
            "numpy.random.Generator",
            "numpy.random.default_rng",
            "numpy.random.SeedSequence",
        }
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_imported(node.func)
            if target is None or target in self._ALLOWED:
                continue
            if target.startswith("numpy.random."):
                yield self.violation(
                    ctx,
                    node,
                    f"call to {target} uses numpy's global/module RNG; "
                    "pass an explicit generator derived from a named "
                    "sim.rng stream",
                )
            elif target.startswith("random.") and target.count(".") == 1:
                yield self.violation(
                    ctx,
                    node,
                    f"call to {target} uses the process-global RNG; draw "
                    "from a named stream (sim.rng.stream(name)) instead",
                )


@register
class WallClock(Rule):
    """RL002 — simulated components must not read the wall clock.

    Wall-clock reads make runs time-of-day dependent and are never
    reproducible.  Core simulation code measures *simulated* time
    (``sim.now``); host timing is allowed only in the experiments layer's
    stderr diagnostics.
    """

    code = "RL002"
    name = "no-wall-clock"
    summary = (
        "no wall-clock reads (time.time/perf_counter/datetime.now) in "
        "sim/model/policies/queueing; use sim.now"
    )
    scope = CORE_SIM_SCOPE

    _CLOCKS: FrozenSet[str] = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "time.clock_gettime",
            "datetime.datetime.now",
            "datetime.datetime.today",
            "datetime.datetime.utcnow",
            "datetime.date.today",
        }
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_imported(node.func)
            if target in self._CLOCKS:
                yield self.violation(
                    ctx,
                    node,
                    f"wall-clock read {target}() in core simulation code; "
                    "use the simulated clock (sim.now) — host timing "
                    "belongs in repro.experiments only",
                )


def _is_unordered_set_expr(node: ast.expr, ctx: ModuleContext) -> bool:
    """Whether *node* evaluates to an unordered set-like collection."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        target = ctx.resolve(node.func)
        if target in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return True
    return False


def _unwrap_order_preserving(node: ast.expr, ctx: ModuleContext) -> ast.expr:
    """Strip list/tuple/enumerate/reversed wrappers (they preserve order)."""
    while isinstance(node, ast.Call) and node.args:
        target = ctx.resolve(node.func)
        if target in ("list", "tuple", "enumerate", "reversed", "iter"):
            node = node.args[0]
        else:
            break
    return node


@register
class UnorderedIteration(Rule):
    """RL003 — never iterate a set in event-ordering/aggregation code.

    Set iteration order depends on insertion history and hash seeds of
    the *values*; iterating one while scheduling events or accumulating
    floats makes run output depend on incidental program history.  Wrap
    the iterable in ``sorted(...)`` to fix (or suppress where order is
    provably immaterial).
    """

    code = "RL003"
    name = "no-unordered-iteration"
    summary = (
        "no iteration over set/frozenset (or set-producing methods) in "
        "core sim code without an explicit sorted(...)"
    )
    scope = CORE_SIM_SCOPE

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        for iterable, owner in iteration_sites(ctx.tree):
            unwrapped = _unwrap_order_preserving(iterable, ctx)
            if _is_unordered_set_expr(unwrapped, ctx):
                yield self.violation(
                    ctx,
                    owner,
                    "iteration over an unordered set in core simulation "
                    "code; wrap the iterable in sorted(...) to fix the "
                    "order",
                )


@register
class FloatSum(Rule):
    """RL004 — replication/result aggregation must use ``math.fsum``.

    Built-in ``sum()`` accumulates rounding error in argument order, so
    reassembling parallel results in a different order changes the last
    bits of every average — exactly the bug PR 1 fixed.  ``math.fsum`` is
    correctly rounded and therefore permutation invariant.  Integer-only
    sums may carry a documented suppression pragma.
    """

    code = "RL004"
    name = "fsum-aggregation"
    summary = (
        "aggregation modules must use math.fsum, not sum(), on floats "
        "(permutation-invariant averaging)"
    )
    scope = AGGREGATION_SCOPE

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.resolve(node.func) == "sum":
                yield self.violation(
                    ctx,
                    node,
                    "sum() in an aggregation module is order-dependent on "
                    "floats; use math.fsum (or suppress with a pragma if "
                    "the operands are provably integers)",
                )


@register
class MutableDefault(Rule):
    """RL005 — no mutable default arguments.

    A mutable default is shared across *all* calls, so state leaks from
    one simulation run into the next — a classic source of
    "first run differs from second run" irreproducibility.
    """

    code = "RL005"
    name = "no-mutable-default"
    summary = "no mutable default arguments (shared state leaks across runs)"
    scope = ("repro",)

    _MUTABLE_CALLS: FrozenSet[str] = frozenset(
        {
            "list",
            "dict",
            "set",
            "bytearray",
            "collections.defaultdict",
            "collections.deque",
            "collections.OrderedDict",
            "collections.Counter",
        }
    )

    def _is_mutable(self, node: ast.expr, ctx: ModuleContext) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        if isinstance(node, ast.Call):
            return ctx.resolve(node.func) in self._MUTABLE_CALLS
        return False

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults: List[Optional[ast.expr]] = list(node.args.defaults)
            defaults.extend(node.args.kw_defaults)
            for default in defaults:
                if default is not None and self._is_mutable(default, ctx):
                    yield self.violation(
                        ctx,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None (or use dataclasses.field) and "
                        "construct inside the function",
                    )


@register
class SerializationCoverage(Rule):
    """RL006 — every config/results dataclass field must be serialized.

    The content-addressed result cache hashes the serialized config; a
    dataclass field that ``repro.model.serialization`` does not mention is
    invisible to the cache key, so two *different* runs could collide on
    one cache entry.  This cross-module check requires every field of the
    dataclasses in the config/results modules to appear as a string key
    in the serialization module.
    """

    code = "RL006"
    name = "serialization-coverage"
    summary = (
        "every dataclass field in config/results modules must appear in "
        "a serialization module (cache-key completeness)"
    )
    scope = SERIALIZED_DATACLASS_SCOPE

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        modules = [
            ctx
            for ctx in (project.get(name) for name in SERIALIZATION_MODULES)
            if ctx is not None
        ]
        if not modules:
            # Partial run (single file / fixture tree without any
            # serialization module): the cross-module check cannot apply.
            return
        keys: Set[str] = {
            node.value
            for ctx in modules
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        for module_name in SERIALIZED_DATACLASS_SCOPE:
            ctx = project.get(module_name)
            if ctx is None:
                continue
            yield from self._check_dataclasses(ctx, keys)

    def _check_dataclasses(
        self, ctx: ModuleContext, keys: Set[str]
    ) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(
                is_dataclass_decorator(dec, ctx.imports)
                for dec in node.decorator_list
            ):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                field_name = stmt.target.id
                if field_name.startswith("_"):
                    continue
                if is_classvar_annotation(stmt.annotation, ctx.imports):
                    continue
                if field_name not in keys:
                    yield self.violation(
                        ctx,
                        stmt,
                        f"dataclass field {node.name}.{field_name} is not "
                        f"mentioned in any of {SERIALIZATION_MODULES}; "
                        "serialize it (and bump the format version) or "
                        "the cache key is incomplete",
                    )


@register
class EnvironmentRead(Rule):
    """RL007 — core simulation paths must not read ambient host state.

    ``os.environ``/``getpass``/``platform`` reads make simulation output
    depend on *which machine* (or shell) ran it.  All host configuration
    enters through the experiments layer and is passed down explicitly.
    """

    code = "RL007"
    name = "no-environment-reads"
    summary = (
        "no os.environ/getpass/platform reads in sim/model/policies/"
        "queueing; pass configuration explicitly"
    )
    scope = CORE_SIM_SCOPE

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        seen: Set[Tuple[int, int]] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                target = ctx.resolve_imported(node.func)
                if target is not None and (
                    target in ("os.getenv", "os.getlogin", "os.uname")
                    or target.startswith("getpass.")
                    or target.startswith("platform.")
                ):
                    location = (node.lineno, node.col_offset)
                    if location not in seen:
                        seen.add(location)
                        yield self.violation(
                            ctx,
                            node,
                            f"host-environment read {target}() in core "
                            "simulation code; results must not depend on "
                            "the machine or shell",
                        )
            elif isinstance(node, (ast.Attribute, ast.Name)):
                if ctx.resolve_imported(node) == "os.environ":
                    location = (node.lineno, node.col_offset)
                    if location not in seen:
                        seen.add(location)
                        yield self.violation(
                            ctx,
                            node,
                            "os.environ access in core simulation code; "
                            "pass configuration in explicitly",
                        )


@register
class SwallowedException(Rule):
    """RL008 — no bare ``except:`` and no silently swallowed engine errors.

    A bare ``except:`` catches ``KeyboardInterrupt``/``SystemExit`` and
    hides real failures; an ``except ...: pass`` inside the simulation
    kernel turns scheduling bugs into silently-wrong results — the worst
    possible failure mode for a reproduction.
    """

    code = "RL008"
    name = "no-swallowed-exceptions"
    summary = (
        "no bare except: anywhere; no except-pass handlers inside the "
        "simulation kernel (repro.sim)"
    )
    scope = ("repro",)

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or `...`
            return False
        return True

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        in_kernel = ctx.module == "repro.sim" or ctx.module.startswith("repro.sim.")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    ctx,
                    node,
                    "bare except: catches KeyboardInterrupt/SystemExit and "
                    "hides failures; catch a specific exception type",
                )
            elif in_kernel and self._swallows(node):
                yield self.violation(
                    ctx,
                    node,
                    "exception swallowed (except ...: pass) inside the "
                    "simulation kernel; handle it or let it propagate — "
                    "silent errors produce silently-wrong results",
                )


@register
class PrintInCore(Rule):
    """RL009 — no ``print()`` in core simulation code.

    Model code communicates through results objects and monitors; stray
    prints interleave nondeterministically under the process-pool runner
    and corrupt the byte-identical CLI output the cache smoke test
    diffs.  User-facing output belongs in ``repro.experiments``.
    """

    code = "RL009"
    name = "no-print-in-core"
    summary = (
        "no print() in sim/model/policies/queueing; return results or "
        "subscribe to TraceMessage on Simulator.bus"
    )
    scope = CORE_SIM_SCOPE

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and ctx.resolve(node.func) == "print":
                yield self.violation(
                    ctx,
                    node,
                    "print() in core simulation code; return data or "
                    "subscribe to TraceMessage on Simulator.bus (output "
                    "belongs in repro.experiments)",
                )


@register
class FilesystemOrder(Rule):
    """RL010 — directory listings must be sorted before iteration.

    ``os.listdir``/``Path.glob``/``iterdir`` order is filesystem- and
    OS-dependent; iterating it unsorted makes batch composition (and
    therefore output ordering) machine-dependent.  Wrap in
    ``sorted(...)``.
    """

    code = "RL010"
    name = "sorted-directory-listing"
    summary = (
        "no iteration over os.listdir/scandir/glob/iterdir results "
        "without sorted(...) (filesystem order is machine-dependent)"
    )
    scope = ("repro",)

    _LISTING_CALLS: FrozenSet[str] = frozenset(
        {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
    )
    _LISTING_METHODS: FrozenSet[str] = frozenset({"iterdir", "glob", "rglob"})

    def _is_listing(self, node: ast.expr, ctx: ModuleContext) -> bool:
        if not isinstance(node, ast.Call):
            return False
        target = ctx.resolve_imported(node.func)
        if target in self._LISTING_CALLS:
            return True
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self._LISTING_METHODS
        )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        for iterable, owner in iteration_sites(ctx.tree):
            unwrapped = _unwrap_order_preserving(iterable, ctx)
            if self._is_listing(unwrapped, ctx):
                yield self.violation(
                    ctx,
                    owner,
                    "iteration over a directory listing in filesystem "
                    "order; wrap it in sorted(...) so behaviour is "
                    "machine-independent",
                )


@register
class FaultStreamDiscipline(Rule):
    """RL011 — fault schedules must draw from named ``sim.rng`` streams.

    The chaos-replay guarantee — the same ``(seed, plan)`` replays
    byte-identically, including across the parallel runner — holds only
    because every draw the fault layer makes comes from a named stream
    (``faults.outage{i}.s{site}``, ``faults.net``) derived from the run's
    master seed.  An ad-hoc ``random.Random(...)`` (however it is
    seeded), a ``.seed(...)`` call, or any numpy randomness inside
    ``repro.faults`` bypasses that derivation: the schedule stops being a
    pure function of ``(seed, plan)`` and starts perturbing — or being
    perturbed by — workload streams.
    """

    code = "RL011"
    name = "fault-stream-discipline"
    summary = (
        "fault-schedule randomness must come from named sim.rng streams; "
        "no random.Random()/seed()/numpy randomness in repro.faults"
    )
    scope = ("repro.faults",)

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_imported(node.func)
            if target == "random.Random":
                yield self.violation(
                    ctx,
                    node,
                    "ad-hoc random.Random(...) in the fault layer; derive "
                    "the stream from sim.rng.stream('faults....') so the "
                    "schedule is a pure function of (seed, plan)",
                )
            elif target is not None and target.startswith("numpy.random"):
                yield self.violation(
                    ctx,
                    node,
                    f"numpy randomness ({target}) in the fault layer; use "
                    "a named sim.rng stream",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "seed"
            ):
                yield self.violation(
                    ctx,
                    node,
                    "re-seeding an RNG in the fault layer; named streams "
                    "are already seeded deterministically from the run's "
                    "master seed",
                )


@register
class EventListEncapsulation(Rule):
    """RL012 — the future-event list has exactly one implementation home.

    The kernel's replay guarantee rests on a single total order —
    ``(time, priority, seq)`` with lazy deletion — whose invariants live
    entirely in ``repro.sim.events`` (:class:`EventQueue` and the
    :class:`MinHeap` helper resources use).  A stray ``import heapq`` or
    a reach into private queue structures (``_heap``, ``_lane``,
    ``_buckets``, ``_keys``, ``_free``) creates a second place where
    ordering or liveness can drift — exactly the kind of silent
    divergence the golden-trace suite exists to catch, except at a call
    site the suite may not cover.  Everything else goes through
    the queue's public API (``push``/``rent``/``cancel``/``pop_due``).
    """

    code = "RL012"
    name = "event-list-encapsulation"
    summary = (
        "no heapq import or event-queue private-structure access "
        "(_heap/_lane/_buckets/_keys/_free) outside repro.sim.events; use the "
        "EventQueue/MinHeap public API"
    )
    scope = ("repro",)

    _HOME = "repro.sim.events"
    _PRIVATE_ATTRS: FrozenSet[str] = frozenset(
        {"_heap", "_lane", "_buckets", "_keys", "_free"}
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        if ctx.module == self._HOME:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "heapq" or alias.name.startswith("heapq."):
                        yield self.violation(
                            ctx,
                            node,
                            "import of heapq outside repro.sim.events; the "
                            "future-event list's ordering invariants have "
                            "one home — use EventQueue/MinHeap from "
                            "repro.sim.events",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "heapq" or (
                    node.module or ""
                ).startswith("heapq."):
                    yield self.violation(
                        ctx,
                        node,
                        "import from heapq outside repro.sim.events; use "
                        "the EventQueue/MinHeap public API",
                    )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in self._PRIVATE_ATTRS
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"access to event-queue private structure "
                    f"{node.attr!r} outside repro.sim.events; go through "
                    "push/rent/cancel/pop_due/peek_time instead",
                )


@register
class GuardedEmit(Rule):
    """RL019 — hot-path event emissions must be guarded.

    The telemetry bus's zero-cost-when-disabled property rests on the
    *guarded emit* idiom: every ``bus.emit(...)`` in kernel/model code
    sits behind a ``wants``/``wants_type``/``trace_wanted``/``active``
    test so a telemetry-free run never constructs an event object.  An
    unguarded emit silently re-introduces per-event allocation on the
    hot path — exactly the overhead the disabled-telemetry benchmark
    gate exists to keep out, except at a call site the benchmark's
    scenario may not cover.

    Recognized guard shapes (all appear in the codebase):

    * an ancestor ``if`` whose test mentions a guard attribute — either
      branch, so the engine's tracing loop (the ``else`` of
      ``if not bus.trace_wanted:``) counts;
    * a *preceding* early-exit guard in the same statement suite
      (``if ... not bus.wants(...): return`` — the
      ``LoadBoard._announce`` shape);
    * calls through a local alias (``emit = bus.emit``) inherit the
      same requirements.
    """

    code = "RL019"
    name = "guarded-emit"
    summary = (
        "bus.emit in kernel/model hot paths must sit behind a "
        "wants()/wants_type()/trace_wanted/active guard so disabled "
        "telemetry constructs no event objects"
    )
    scope = ("repro.sim", "repro.model")

    _GUARD_NAMES: FrozenSet[str] = frozenset(
        {"wants", "wants_type", "trace_wanted", "active"}
    )

    def _mentions_guard(self, test: ast.expr) -> bool:
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute) and node.attr in self._GUARD_NAMES:
                return True
            if isinstance(node, ast.Name) and node.id in self._GUARD_NAMES:
                return True
        return False

    @staticmethod
    def _is_early_exit(body: List[ast.stmt]) -> bool:
        return bool(body) and isinstance(
            body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
        )

    @staticmethod
    def _emit_aliases(func: ast.AST) -> Set[str]:
        """Local names bound to a ``<bus>.emit`` bound method."""
        aliases: Set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if isinstance(value, ast.Attribute) and value.attr == "emit":
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
        return aliases

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        # ast.walk reaches nested defs on its own, so _check_suite stops
        # at function boundaries instead of recursing into them — each
        # function is processed exactly once, with its own alias set.
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                aliases = self._emit_aliases(node)
                yield from self._check_suite(ctx, node.body, aliases, False)

    def _check_suite(
        self,
        ctx: ModuleContext,
        suite: List[ast.stmt],
        aliases: Set[str],
        guarded: bool,
    ) -> Iterator[Violation]:
        suite_guarded = guarded
        for stmt in suite:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # processed by check_module's walk
            if isinstance(stmt, ast.If):
                branch_guarded = suite_guarded or self._mentions_guard(
                    stmt.test
                )
                if not suite_guarded:
                    yield from self._check_exprs(ctx, [stmt.test], aliases)
                for branch in (stmt.body, stmt.orelse):
                    yield from self._check_suite(
                        ctx, branch, aliases, branch_guarded
                    )
                if self._mentions_guard(stmt.test) and self._is_early_exit(
                    stmt.body
                ):
                    # `if not wants: return` guards the rest of the suite.
                    suite_guarded = True
                continue
            if not suite_guarded:
                yield from self._check_exprs(
                    ctx, self._own_exprs(stmt), aliases
                )
            for child_suite in self._child_suites(stmt):
                yield from self._check_suite(
                    ctx, child_suite, aliases, suite_guarded
                )

    @staticmethod
    def _child_suites(stmt: ast.stmt) -> List[List[ast.stmt]]:
        suites: List[List[ast.stmt]] = []
        for field in ("body", "orelse", "finalbody"):
            value = getattr(stmt, field, None)
            if isinstance(value, list) and value and isinstance(
                value[0], ast.stmt
            ):
                suites.append(value)
        for handler in getattr(stmt, "handlers", []):
            suites.append(handler.body)
        return suites

    @staticmethod
    def _own_exprs(stmt: ast.stmt) -> List[ast.expr]:
        """The statement's expressions, excluding nested statement suites."""
        exprs: List[ast.expr] = []
        stack: List[object] = [value for _, value in ast.iter_fields(stmt)]
        while stack:
            value = stack.pop()
            if isinstance(value, list):
                stack.extend(value)
            elif isinstance(value, ast.stmt):
                continue  # a child suite; handled by _check_suite
            elif isinstance(value, ast.expr):
                exprs.append(value)
            elif isinstance(value, ast.AST):
                stack.extend(child for _, child in ast.iter_fields(value))
        return exprs

    def _check_exprs(
        self, ctx: ModuleContext, exprs: List[ast.expr], aliases: Set[str]
    ) -> Iterator[Violation]:
        for expr in exprs:
            for node in ast.walk(expr):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                is_emit = (
                    isinstance(func, ast.Attribute) and func.attr == "emit"
                ) or (isinstance(func, ast.Name) and func.id in aliases)
                if is_emit:
                    yield self.violation(
                        ctx,
                        node,
                        "unguarded bus.emit on a kernel/model hot path; "
                        "wrap it in `if bus.active and bus.wants(Type):` "
                        "(or wants_type for opt-in events) so disabled "
                        "telemetry constructs nothing",
                    )


__all__ = [
    "CORE_SIM_SCOPE",
    "AGGREGATION_SCOPE",
    "SERIALIZED_DATACLASS_SCOPE",
    "SERIALIZATION_MODULE",
    "SERIALIZATION_MODULES",
    "GlobalRandomState",
    "WallClock",
    "UnorderedIteration",
    "FloatSum",
    "MutableDefault",
    "SerializationCoverage",
    "EnvironmentRead",
    "SwallowedException",
    "PrintInCore",
    "FilesystemOrder",
    "FaultStreamDiscipline",
    "EventListEncapsulation",
    "GuardedEmit",
]
