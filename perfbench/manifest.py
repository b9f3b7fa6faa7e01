"""The benchmark's manifest, ``BENCHMARK.json`` at the checkout root.

It is the one list of the workloads' rationales and of the metrics with
their units; the code reads them from here rather than keeping copies.
"""

from __future__ import annotations

import functools
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.cache
def load() -> dict:
    """The parsed manifest, read once per process."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def metrics(section: str) -> list[tuple[str, str]]:
    """(name, unit) of each ``end_to_end`` or ``per_layer`` metric, in order."""
    return [(m["name"], m["unit"]) for m in load()[section]]


def why(workload: str) -> str:
    """A workload's one-line rationale: the layers it loads and bypasses."""
    return next(w["why"] for w in load()["workloads"] if w["name"] == workload)
