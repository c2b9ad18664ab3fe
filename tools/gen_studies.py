#!/usr/bin/env python
"""Generate (or verify) the committed study specs under studies/.

Every built-in study of :mod:`repro.ablation.catalog` is committed as a
JSON :class:`~repro.ablation.spec.StudySpec` so that ``repro-experiments
study studies/<name>.json`` is reproducible from a checkout without
running any Python of ours first.  The catalog builders are the source
of truth; this tool keeps the files in sync.  Run from the repository
root::

    python tools/gen_studies.py            # (re)write studies/*.json
    python tools/gen_studies.py --check    # verify they are in sync (CI)

Exit codes: 0 = written / in sync, 1 = ``--check`` found drift (the
committed JSON no longer matches the catalog).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT_DIR = REPO_ROOT / "studies"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.ablation.catalog import build_study, study_names  # noqa: E402
from repro.codec import to_dict  # noqa: E402
from repro.experiments.runconfig import STANDARD  # noqa: E402


def render(name: str) -> str:
    """The canonical JSON text of one built-in study."""
    import json

    spec = build_study(name, STANDARD)
    return (
        json.dumps(to_dict(spec), indent=2, sort_keys=True) + "\n"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify studies/*.json match the catalog instead of writing",
    )
    args = parser.parse_args(argv)

    OUTPUT_DIR.mkdir(exist_ok=True)
    stale = []
    for name in study_names():
        path = OUTPUT_DIR / f"{name}.json"
        text = render(name)
        if args.check:
            if not path.exists() or path.read_text(encoding="utf-8") != text:
                stale.append(path)
        else:
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path.relative_to(REPO_ROOT)}")
    if stale:
        names = ", ".join(str(p.relative_to(REPO_ROOT)) for p in stale)
        print(
            f"stale study specs: {names}\n"
            "run `python tools/gen_studies.py` and commit the result",
            file=sys.stderr,
        )
        return 1
    if args.check:
        print(f"studies/ in sync ({len(study_names())} specs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
