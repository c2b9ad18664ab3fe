"""Side-effect summaries per function, propagated over the call graph.

This is the single-threaded analog of a race detector: instead of asking
"who writes this location concurrently", it asks "who writes this
location *from a context that must be read-only*".  Two contexts in this
codebase carry that contract:

* an :class:`~repro.policies.base.AllocationPolicy` decision — ``select``
  may read everything the :class:`~repro.model.view.SystemView` offers
  and mutate *its own* policy state, but never the view, the system, or
  the simulator behind it;
* a telemetry :class:`~repro.telemetry.bus.EventBus` subscriber — it may
  accumulate into its own collectors but must not feed back into the
  simulation (schedule events, draw randomness, mutate model state).

A summary records, per function: which *roots* it mutates (parameter
positions, with the attribute path that was written), whether it
schedules simulation events, and whether it consumes RNG streams.
Summaries start from direct syntactic effects and are propagated to a
fixpoint over the call graph, mapping callee parameter roots back onto
caller argument expressions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.astutils import dotted
from repro.lint.flow.callgraph import CallGraph, CallSite
from repro.lint.flow.dataflow import RngFlow, _is_fetch_call
from repro.lint.flow.symbols import FunctionSymbol, SymbolTable

#: Method names that mutate their receiver in-place.
MUTATOR_METHODS: FrozenSet[str] = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "popleft",
        "appendleft",
        "clear",
        "sort",
        "reverse",
        "add",
        "discard",
        "update",
        "setdefault",
        "difference_update",
        "intersection_update",
        "symmetric_difference_update",
    }
)

#: Simulator entry points that feed events back into the run.
SCHEDULING_METHODS: FrozenSet[str] = frozenset(
    {"schedule", "schedule_at", "launch"}
)

#: Path length cap; guarantees the fixpoint terminates.
_MAX_PATH = 3


@dataclass(frozen=True)
class Mutation:
    """One mutated root: parameter position plus the written path."""

    param: int
    path: Tuple[str, ...]

    def prefixed(self, prefix: Tuple[str, ...], param: int) -> "Mutation":
        combined = (prefix + self.path)[:_MAX_PATH]
        return Mutation(param=param, path=combined)


@dataclass
class Summary:
    """Propagated side effects of one function."""

    mutations: Set[Mutation] = field(default_factory=set)
    schedules: bool = False
    draws: bool = False

    @property
    def is_pure(self) -> bool:
        return not self.mutations and not self.schedules and not self.draws


def _root_of(
    expr: ast.expr, symbol: FunctionSymbol
) -> Optional[Tuple[int, Tuple[str, ...]]]:
    """Map an expression chain to ``(param_index, attr_path)`` if rooted
    at one of the function's positional parameters (``self`` included).

    Subscripts are transparent (``self.xs[i].y`` roots at ``self`` with
    path ``("xs", "y")``); anything rooted at a local or a call result
    returns ``None``.
    """
    path: List[str] = []
    node = expr
    while True:
        if isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if not isinstance(node, ast.Name):
        return None
    index = symbol.param_index(node.id)
    if index is None:
        return None
    return index, tuple(reversed(path))[:_MAX_PATH]


def _direct_summary(symbol: FunctionSymbol, rng: RngFlow) -> Summary:
    summary = Summary()
    streams = rng.per_function.get(symbol.qualname)
    if streams is not None and streams.draws_directly:
        summary.draws = True

    for node in ast.walk(symbol.node):
        # Attribute / subscript assignment: x.a.b = v, x.a[i] = v, x.a += v.
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if isinstance(target, ast.Tuple):
                elements = list(target.elts)
            else:
                elements = [target]
            for element in elements:
                if not isinstance(element, (ast.Attribute, ast.Subscript)):
                    continue
                owner = (
                    element.value
                    if isinstance(element, ast.Attribute)
                    else element.value
                )
                root = _root_of(owner, symbol)
                if root is None:
                    continue
                index, path = root
                written = path
                if isinstance(element, ast.Attribute):
                    written = (path + (element.attr,))[:_MAX_PATH]
                summary.mutations.add(Mutation(param=index, path=written))

        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            # object.__setattr__(x, "a", v) — frozen-dataclass idiom.
            if (
                isinstance(func, ast.Name)
                and func.id == "setattr"
                and node.args
            ):
                root = _root_of(node.args[0], symbol)
                if root is not None:
                    index, path = root
                    summary.mutations.add(Mutation(param=index, path=path))
            continue
        if func.attr in SCHEDULING_METHODS:
            summary.schedules = True
        if func.attr in MUTATOR_METHODS:
            root = _root_of(func.value, symbol)
            if root is not None:
                index, path = root
                summary.mutations.add(Mutation(param=index, path=path))
        chain = dotted(func)
        if chain is not None and chain.endswith(".__setattr__"):
            # object.__setattr__(self, ...) spelled as a method chain.
            if node.args:
                root = _root_of(node.args[0], symbol)
                if root is not None:
                    index, path = root
                    summary.mutations.add(Mutation(param=index, path=path))
    return summary


class PurityAnalysis:
    """Fixpoint side-effect summaries for every function in the program."""

    def __init__(
        self, table: SymbolTable, graph: CallGraph, rng: RngFlow
    ) -> None:
        self.table = table
        self.graph = graph
        self.summaries: Dict[str, Summary] = {}
        for symbol in table.iter_functions():
            self.summaries[symbol.qualname] = _direct_summary(symbol, rng)
        self._propagate()

    # ------------------------------------------------------------------
    # Fixpoint propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> None:
        changed = True
        # Path truncation bounds the lattice, so this terminates; the
        # iteration cap is a belt-and-braces guard for adversarial input.
        iterations = 0
        cap = max(8, 2 * len(self.summaries))
        while changed and iterations < cap:
            changed = False
            iterations += 1
            for qualname in sorted(self.summaries):
                if self._update_one(qualname):
                    changed = True

    def _update_one(self, qualname: str) -> bool:
        symbol = self.table.functions.get(qualname)
        if symbol is None:
            return False
        summary = self.summaries[qualname]
        changed = False
        for site in self.graph.sites.get(qualname, ()):
            # Registry stream fetches (``.stream``/``.once``/``.rng(name)``)
            # are read-only by contract; the registry's internal cache
            # insert must not surface as a mutation of the fetch chain.
            if _is_fetch_call(site.node):
                continue
            for callee_name in site.callees:
                callee_summary = self.summaries.get(callee_name)
                callee_symbol = self.table.functions.get(callee_name)
                if callee_summary is None or callee_symbol is None:
                    continue
                if callee_summary.schedules and not summary.schedules:
                    summary.schedules = True
                    changed = True
                if callee_summary.draws and not summary.draws:
                    summary.draws = True
                    changed = True
                # Snapshot: for recursive calls, callee and caller share
                # the summary object being extended.
                for mutation in tuple(callee_summary.mutations):
                    mapped = self._map_mutation(
                        mutation, site, symbol, callee_symbol
                    )
                    if mapped is not None and mapped not in summary.mutations:
                        summary.mutations.add(mapped)
                        changed = True
        return changed

    def _map_mutation(
        self,
        mutation: Mutation,
        site: CallSite,
        caller: FunctionSymbol,
        callee: FunctionSymbol,
    ) -> Optional[Mutation]:
        """Translate a callee-root mutation into the caller's frame."""
        expr = self._argument_expr(mutation.param, site, callee)
        if expr is None:
            return None
        root = _root_of(expr, caller)
        if root is None:
            return None
        index, prefix = root
        return mutation.prefixed(prefix, index)

    @staticmethod
    def _argument_expr(
        param: int, site: CallSite, callee: FunctionSymbol
    ) -> Optional[ast.expr]:
        """The caller expression bound to the callee's parameter *param*."""
        offset = 0
        if site.is_constructor:
            # ``__init__``'s parameter 0 binds a fresh object the caller
            # owns — mutating it is not a side effect on any argument.
            if param == 0:
                return None
            offset = 1
        elif site.is_method_call:
            if param == 0:
                return site.receiver
            offset = 1
        positional = site.node.args
        index = param - offset
        if 0 <= index < len(positional):
            arg = positional[index]
            if isinstance(arg, ast.Starred):
                return None
            return arg
        if param < len(callee.params):
            wanted = callee.params[param]
            for keyword in site.node.keywords:
                if keyword.arg == wanted:
                    return keyword.value
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def summary(self, qualname: str) -> Summary:
        return self.summaries.get(qualname, Summary())

    def mutates_param(
        self, qualname: str, param: int, under: Optional[str] = None
    ) -> List[Mutation]:
        """Mutations of *param*; restricted to paths starting with *under*."""
        found = []
        for mutation in self.summary(qualname).mutations:
            if mutation.param != param:
                continue
            if under is not None and (
                not mutation.path or mutation.path[0] != under
            ):
                continue
            found.append(mutation)
        return sorted(found, key=lambda m: (m.param, m.path))


__all__ = [
    "MUTATOR_METHODS",
    "SCHEDULING_METHODS",
    "Mutation",
    "Summary",
    "PurityAnalysis",
]
