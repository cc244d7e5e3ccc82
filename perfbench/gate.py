"""Correctness gate: every timed operation's output is checked against a
reference computed outside the timed region, and every mismatch or
exception counts as a failed operation.

Run ``python3 perfbench/gate.py`` to self-test the gate: it feeds one
right and one deliberately wrong result of every kind and exits non-zero
unless exactly the wrong ones are counted. ``run.py`` runs the same
self-test before every benchmark run.
"""
from __future__ import annotations

import math
import sys

import pandas as pd


def row_set(rows) -> list[tuple]:
    """Order-free, type-normalised form of result rows: a pandas frame
    (engine output) or a list of dicts (sentence evaluation)."""
    if isinstance(rows, pd.DataFrame):
        records = rows.to_dict("records")
        cols = list(rows.columns)
    else:
        records = list(rows)
        cols = sorted({k for r in records for k in r})

    def norm(v):
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return None
        return str(v)

    return sorted(
        (tuple(norm(r.get(c)) for c in cols) for r in records),
        key=lambda t: tuple("" if x is None else x for x in t),
    )


class Gate:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}" if detail else label)
        return ok

    def same_rows(self, label: str, got, want) -> bool:
        g, w = row_set(got), row_set(want)
        return self.record(label, g == w, f"{len(g)} rows, expected {len(w)}")

    def covers(self, label: str, candidates: set, truth: set) -> bool:
        missing = truth - candidates
        return self.record(label, not missing, f"{len(missing)} true sids missing")

    def equal(self, label: str, got, want) -> bool:
        return self.record(label, got == want, f"{got!r} != {want!r}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def self_test() -> None:
    """Raise RuntimeError unless the gate counts exactly the wrong results."""
    ref = pd.DataFrame({"doc_id": [1, 2], "a": ["Ann", "Bob"]})
    rows = [{"doc_id": 1, "sid": 1000, "v": "x"}, {"doc_id": 1, "sid": 1000, "v": None}]
    g = Gate()
    right = [
        g.same_rows("engine", ref.iloc[::-1].reset_index(drop=True), ref),
        g.covers("tree", {1, 2, 3}, {1, 3}),
        g.same_rows("span", list(reversed(rows)), rows),
        g.equal("ingest", 10, 10),
    ]
    wrong = [
        g.same_rows("engine", ref.iloc[:1], ref),
        g.same_rows("engine", ref.assign(a=["Ann", "Bo"]), ref),
        g.covers("tree", {1, 2}, {1, 3}),
        g.same_rows("span", rows[:1], rows),
        g.equal("ingest", 9, 10),
    ]
    if not all(right) or any(wrong) or (g.attempted, g.failed) != (9, 5):
        raise RuntimeError(
            f"correctness gate self-test failed: attempted={g.attempted} "
            f"failed={g.failed} failures={g.failures}"
        )


if __name__ == "__main__":
    try:
        self_test()
    except RuntimeError as e:
        print(e, file=sys.stderr)
        sys.exit(1)
    print("correctness gate self-test: 5 of 5 wrong results counted, 0 of 4 right ones")
