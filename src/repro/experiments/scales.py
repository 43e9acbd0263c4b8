"""The experiments' dataset scale presets.

Kept apart from :mod:`repro.experiments.common`, which builds datasets, so
the command line can offer the scale names without loading the generators.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Environment variable selecting the benchmark scale ("tiny", "small", "medium").
SCALE_ENVIRONMENT_VARIABLE = "OASIS_BENCH_SCALE"

#: Per-scale dataset sizes.  "small" (the default) keeps the full benchmark
#: suite in the tens of minutes on a laptop; "medium" takes noticeably longer
#: but sharpens the OASIS-vs-S-W gap; "tiny" exists for smoke tests.
SCALE_PRESETS: Dict[str, Dict[str, int]] = {
    "tiny": {
        "family_count": 6,
        "members_low": 2,
        "members_high": 4,
        "ancestor_low": 40,
        "ancestor_high": 120,
        "singleton_count": 8,
        "singleton_low": 7,
        "singleton_high": 150,
        "query_count": 12,
    },
    "small": {
        "family_count": 45,
        "members_low": 4,
        "members_high": 8,
        "ancestor_low": 100,
        "ancestor_high": 400,
        "singleton_count": 60,
        "singleton_low": 7,
        "singleton_high": 500,
        "query_count": 60,
    },
    "medium": {
        "family_count": 120,
        "members_low": 4,
        "members_high": 9,
        "ancestor_low": 100,
        "ancestor_high": 600,
        "singleton_count": 200,
        "singleton_low": 7,
        "singleton_high": 800,
        "query_count": 100,
    },
}


def available_scales() -> Tuple[str, ...]:
    """The known scale presets."""
    return tuple(sorted(SCALE_PRESETS))
