"""JSON round-tripping of one run's results.

Every dataclass serializes through :mod:`repro.codec`; these two names
remain as the stable entry points of the results format, which the
content-addressed result cache (:mod:`repro.experiments.cache`), the
golden corpus and the benchmark digests all hash.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.codec import from_dict, to_dict
from repro.model.metrics import SystemResults


def results_to_dict(results: SystemResults) -> Dict[str, Any]:
    """Flatten one run's :class:`SystemResults` into JSON primitives."""
    return to_dict(results)


def results_from_dict(data: Dict[str, Any]) -> SystemResults:
    """Rebuild a :class:`SystemResults` from :func:`results_to_dict` output.

    Raises:
        ConfigError: On missing or unknown keys, an unknown version, or
            malformed values.
    """
    results: SystemResults = from_dict(SystemResults, data)
    return results


__all__ = ["results_to_dict", "results_from_dict"]
