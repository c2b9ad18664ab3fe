"""Generate (or verify) docs/api_index.md from the package's public API.

Walks every ``repro`` module, collects its ``__all__`` exports with their
one-line summaries (the first docstring line), and writes a compact index.
Run from the repository root::

    python tools/gen_api_index.py            # regenerate docs/api_index.md
    python tools/gen_api_index.py --check    # verify it is up to date (CI)

Exit codes: 0 = written / up to date, 1 = ``--check`` found the index
stale, 2 = a repro module failed to import (the index would silently be
missing modules, so this is fatal rather than skipped) or lists a name in
``__all__`` that it does not define (``import *`` of it would fail).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import sys
from typing import Any, List, Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "docs" / "api_index.md"


def first_line(obj: Any) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].strip()


class ImportFailure(Exception):
    """A repro module could not be imported while building the index."""


def iter_module_names() -> List[str]:
    """Every non-package repro module, sorted; import errors are fatal.

    ``pkgutil.walk_packages`` swallows package import errors by default,
    which would let the index silently drift when a subpackage breaks —
    the ``onerror`` hook turns that into a hard failure instead.
    """
    import repro

    def fail(name: str) -> None:
        raise ImportFailure(f"error importing package {name!r}")

    return sorted(
        module.name
        for module in pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail)
        if not module.ispkg
    )


def build_index() -> str:
    """Render the full api_index.md content.

    Raises:
        ImportFailure: When any repro module fails to import — skipping it
            would produce a silently incomplete index — or exports a name
            it does not define.
    """
    lines = [
        "# API index",
        "",
        "Generated by `python tools/gen_api_index.py` — one line per public",
        "export.  See the docstrings (or `docs/architecture.md`) for detail.",
        "",
    ]
    modules = iter_module_names()
    for name in modules:
        try:
            module = importlib.import_module(name)
        except Exception as error:
            raise ImportFailure(f"error importing {name!r}: {error}") from error
        exports = getattr(module, "__all__", None)
        if not exports:
            continue
        lines.append(f"## `{name}`")
        summary = first_line(module)
        if summary:
            lines.append("")
            lines.append(summary)
        lines.append("")
        for export in exports:
            if not hasattr(module, export):
                raise ImportFailure(f"{name}.__all__ lists undefined name {export!r}")
            obj = getattr(module, export)
            kind = (
                "class"
                if inspect.isclass(obj)
                else "func"
                if callable(obj)
                else "const"
            )
            description = first_line(obj) if kind != "const" else ""
            suffix = f" — {description}" if description else ""
            lines.append(f"* `{export}` ({kind}){suffix}")
        lines.append("")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/api_index.md matches the code instead of writing",
    )
    args = parser.parse_args(argv)

    try:
        content = build_index()
    except ImportFailure as error:
        print(f"gen_api_index: {error}", file=sys.stderr)
        return 2

    if args.check:
        existing = OUTPUT.read_text(encoding="utf-8") if OUTPUT.is_file() else None
        if existing != content:
            print(
                f"gen_api_index: {OUTPUT.relative_to(REPO_ROOT)} is stale; "
                "regenerate it with `python tools/gen_api_index.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{OUTPUT.relative_to(REPO_ROOT)} is up to date")
        return 0

    OUTPUT.write_text(content, encoding="utf-8")
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
