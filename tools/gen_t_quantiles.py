#!/usr/bin/env python
"""Generate src/repro/sim/t_quantiles.py from scipy.

The batch-means and replication confidence intervals of
:mod:`repro.sim.stats` need two-sided Student-t quantiles.  Rather than
import scipy on every run, the quantiles for the confidence levels and
degrees of freedom any run uses are recorded once, as exact float reprs,
in a committed module.  That module — not whatever scipy happens to be
installed — is the source of truth every golden digest rests on, so
rewriting it is a behaviour change.  ``tests/sim/test_stats.py`` checks
the committed table against the installed scipy.  Run from the
repository root (scipy must be installed)::

    python tools/gen_t_quantiles.py
"""

from __future__ import annotations

import pathlib
import sys
from typing import List

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "src" / "repro" / "sim" / "t_quantiles.py"

#: Two-sided confidence levels recorded, and the largest df per level.
CONFIDENCES = (0.9, 0.95, 0.99)
MAX_DF = 200
PER_LINE = 4


def render() -> str:
    """The canonical source text of the table module."""
    import scipy
    from scipy import stats

    lines: List[str] = [
        '"""Two-sided Student-t quantiles recorded from scipy by tools/gen_t_quantiles.py.',
        "",
        "Generated; do not edit.  ``T_QUANTILES[c][df - 1]`` is",
        "``scipy.stats.t.ppf(0.5 + c / 2.0, df)`` for c in "
        f"{CONFIDENCES} and df 1-{MAX_DF},",
        f"recorded from scipy {scipy.__version__} as exact float reprs.  These values,",
        "not the installed scipy, are what every confidence interval and golden",
        "digest rests on; see :func:`repro.sim.stats.student_t_quantile`.",
        '"""',
        "",
        "from typing import Dict, Tuple",
        "",
        "T_QUANTILES: Dict[float, Tuple[float, ...]] = {",
    ]
    for confidence in CONFIDENCES:
        values = [
            repr(float(stats.t.ppf(0.5 + confidence / 2.0, df=df)))
            for df in range(1, MAX_DF + 1)
        ]
        lines.append(f"    {confidence!r}: (")
        for start in range(0, MAX_DF, PER_LINE):
            lines.append("        " + ", ".join(values[start : start + PER_LINE]) + ",")
        lines.append("    ),")
    lines += ["}", "", '__all__ = ["T_QUANTILES"]', ""]
    return "\n".join(lines)


def main() -> int:
    OUTPUT.write_text(render(), encoding="utf-8")
    print(f"wrote {OUTPUT.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
