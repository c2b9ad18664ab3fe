"""Named-RNG-stream provenance: fetches, bindings, and draw sites.

The RNG-stream discipline behind every replay guarantee in this repo is:

* streams are *fetched* from the registry by name —
  ``sim.rng.stream("think.s0.t1")``, ``sim.rng.once("query.s0.t1.n4")``
  or ``view.rng("policy.sq")``;
* each named stream has exactly **one owning call path** that draws from
  it, so adding or removing draws in one activity can never perturb
  another;
* stream objects may be passed *down* (``dist.sample(rng)``) but are
  never stashed globally or re-seeded.

This module finds, per function: the fetch sites (with the stream name
when it is a constant, or a normalized ``{}``-pattern for f-strings),
which local variables are bound to streams, and the *draw* sites —
method calls on stream-bound expressions, stream arguments handed to
callees, and draw methods on parameters that follow the codebase's
``rng`` naming convention.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lint.flow.symbols import FunctionSymbol, SymbolTable

#: ``random.Random`` / generator methods that consume stream state.
DRAW_METHODS: FrozenSet[str] = frozenset(
    {
        "random",
        "uniform",
        "triangular",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "expovariate",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "betavariate",
        "gammavariate",
    }
)

#: Registry methods that fetch a named stream: the cached ``stream``,
#: the uncached ``once`` and the view's ``rng``.
FETCH_METHODS: FrozenSet[str] = frozenset({"stream", "once", "rng"})

#: Parameter names conventionally carrying a stream object; draw-method
#: calls on these count as draws even without a visible fetch.
STREAM_PARAM_NAMES: FrozenSet[str] = frozenset({"rng", "stream", "random_stream"})


@dataclass
class StreamFetch:
    """One registry fetch: ``.stream(name)``, ``.once(name)`` or ``.rng(name)``."""

    #: The stream name — exact for constants, a ``{}``-pattern for
    #: f-strings (``"faults.outage{}.s{}"``), ``None`` when dynamic.
    name: Optional[str]
    is_pattern: bool
    node: ast.Call
    function: str


@dataclass
class StreamDraw:
    """One consumption of stream state inside a function."""

    #: Stream name/pattern when the receiver's provenance is known.
    name: Optional[str]
    method: str
    node: ast.AST
    function: str


def _fetch_name(node: ast.Call) -> Tuple[Optional[str], bool]:
    """The stream-name argument: (name-or-pattern, is_pattern)."""
    if not node.args:
        return None, False
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value, False
    if isinstance(arg, ast.JoinedStr):
        parts: List[str] = []
        for value in arg.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append("{}")
        return "".join(parts), True
    return None, False


def _is_fetch_call(node: ast.Call) -> bool:
    """Whether *node* looks like a registry fetch.

    ``<anything>.stream(<one arg>)``, ``<anything>.once(<one arg>)`` and
    ``<anything>.rng(<one arg>)`` all count; the flow rules scope out
    modules where these spellings mean something else.
    """
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    return func.attr in FETCH_METHODS and len(node.args) == 1


@dataclass
class FunctionStreams:
    """Stream facts of one function."""

    fetches: List[StreamFetch]
    draws: List[StreamDraw]
    #: Local names bound to a fetched stream -> stream name (or None).
    bindings: Dict[str, Optional[str]]

    @property
    def draws_directly(self) -> bool:
        return bool(self.draws)


class RngFlow:
    """Stream fetches/draws for every function in the program."""

    def __init__(self) -> None:
        self.per_function: Dict[str, FunctionStreams] = {}

    def all_fetches(self) -> List[StreamFetch]:
        """Every fetch in the program, in deterministic function order."""
        fetches: List[StreamFetch] = []
        for qualname in sorted(self.per_function):
            fetches.extend(self.per_function[qualname].fetches)
        return fetches


def _analyze_function(symbol: FunctionSymbol) -> FunctionStreams:
    fetches: List[StreamFetch] = []
    draws: List[StreamDraw] = []
    bindings: Dict[str, Optional[str]] = {}

    for name in symbol.params:
        if name in STREAM_PARAM_NAMES:
            bindings[name] = None

    # Pass 1: fetches and the locals they are assigned to.
    for node in ast.walk(symbol.node):
        if isinstance(node, ast.Call) and _is_fetch_call(node):
            name, is_pattern = _fetch_name(node)
            fetches.append(
                StreamFetch(
                    name=name,
                    is_pattern=is_pattern,
                    node=node,
                    function=symbol.qualname,
                )
            )
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _is_fetch_call(node.value):
                name, _ = _fetch_name(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings[target.id] = name
        if isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call):
            if _is_fetch_call(node.value) and isinstance(node.target, ast.Name):
                name, _ = _fetch_name(node.value)
                bindings[node.target.id] = name

    def stream_name_of(expr: ast.expr) -> Tuple[bool, Optional[str]]:
        """(is-a-stream, known-name) for a receiver/argument expression."""
        if isinstance(expr, ast.Name) and expr.id in bindings:
            return True, bindings[expr.id]
        if isinstance(expr, ast.Call) and _is_fetch_call(expr):
            name, _ = _fetch_name(expr)
            return True, name
        return False, None

    # Pass 2: draws — method calls on streams, streams passed onward.
    for node in ast.walk(symbol.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in DRAW_METHODS:
            is_stream, name = stream_name_of(func.value)
            if is_stream:
                draws.append(
                    StreamDraw(
                        name=name,
                        method=func.attr,
                        node=node,
                        function=symbol.qualname,
                    )
                )
                continue
        # A stream handed to a callee is consumed by that call path.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            is_stream, name = stream_name_of(arg)
            if is_stream and not _is_fetch_call(node):
                draws.append(
                    StreamDraw(
                        name=name,
                        method="<argument>",
                        node=node,
                        function=symbol.qualname,
                    )
                )
    return FunctionStreams(fetches=fetches, draws=draws, bindings=bindings)


def build_rng_flow(table: SymbolTable) -> RngFlow:
    """Analyze every function in *table* (the module-level entry point)."""
    flow = RngFlow()
    for symbol in table.iter_functions():
        flow.per_function[symbol.qualname] = _analyze_function(symbol)
    return flow


__all__ = [
    "DRAW_METHODS",
    "STREAM_PARAM_NAMES",
    "StreamFetch",
    "StreamDraw",
    "FunctionStreams",
    "RngFlow",
    "build_rng_flow",
]
