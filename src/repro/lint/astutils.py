"""Small AST helpers shared by the lint rules.

The rules never execute the code they inspect; everything here is pure
syntax analysis.  The one piece of real machinery is *import-aware name
resolution*: ``collect_imports`` builds a table mapping local names to the
dotted path they were imported from, and ``resolve_name`` uses it to turn
an attribute chain like ``np.random.seed`` into ``numpy.random.seed`` so a
rule can match on canonical names regardless of aliasing
(``import numpy as np``, ``from random import seed as s``, ...).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Mapping, Optional, Tuple


def collect_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """Map local names bound by imports to their canonical dotted origin.

    * ``import random``             -> ``{"random": "random"}``
    * ``import numpy as np``        -> ``{"np": "numpy"}``
    * ``import numpy.random``       -> ``{"numpy": "numpy"}``
    * ``from random import seed``   -> ``{"seed": "random.seed"}``
    * ``from numpy import random as npr`` -> ``{"npr": "numpy.random"}``

    Relative imports are resolved against *module*'s package so that
    ``from .rng import RandomStreams`` inside ``repro.sim.engine`` maps to
    ``repro.sim.rng.RandomStreams``.
    """
    table: Dict[str, str] = {}
    package_parts = module.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


def dotted(node: ast.AST) -> Optional[str]:
    """The raw dotted form of a ``Name``/``Attribute`` chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_name(node: ast.AST, imports: Mapping[str, str]) -> Optional[str]:
    """Canonical dotted name of an expression, substituting import aliases.

    Returns the chain unchanged when its head is not an imported alias
    (builtins and local variables resolve to themselves), and ``None`` for
    expressions that are not plain ``Name``/``Attribute`` chains.
    """
    chain = dotted(node)
    if chain is None:
        return None
    head, dot, rest = chain.partition(".")
    base = imports.get(head)
    if base is None:
        return chain
    return f"{base}{dot}{rest}" if rest else base


def resolve_imported(node: ast.AST, imports: Mapping[str, str]) -> Optional[str]:
    """Like :func:`resolve_name`, but only for names rooted in an import.

    Returns ``None`` when the chain's head is a local name rather than an
    imported module/object — the right behaviour for rules matching
    *module-level* functions (``random.seed``, ``time.time``, ...), where
    a parameter that happens to be called ``random`` must not match.
    """
    chain = dotted(node)
    if chain is None:
        return None
    head, dot, rest = chain.partition(".")
    base = imports.get(head)
    if base is None:
        return None
    return f"{base}{dot}{rest}" if rest else base


def iteration_sites(tree: ast.Module) -> Iterator[Tuple[ast.expr, ast.AST]]:
    """Yield ``(iterable_expression, owning_node)`` for every iteration.

    Covers ``for``/``async for`` statements and every ``for`` clause of
    list/set/dict comprehensions and generator expressions — the places
    where an unordered iterable silently injects nondeterminism.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for comp in node.generators:
                yield comp.iter, node


def call_name(node: ast.AST, imports: Mapping[str, str]) -> Optional[str]:
    """Canonical dotted name of a call's callee (``None`` for non-calls)."""
    if isinstance(node, ast.Call):
        return resolve_name(node.func, imports)
    return None


__all__ = [
    "collect_imports",
    "dotted",
    "resolve_name",
    "resolve_imported",
    "iteration_sites",
    "call_name",
]
