"""The output oracle, run on every pass.

For one session's records it checks that

* each record's transmission categories sum to its ``total``;
* ``converged`` holds exactly when ``error <= epsilon``;
* each grid cell appears exactly once, as a record or as an abandoned
  cell (no cell missing, duplicated, or outside the grid);
* each record equals the per-cell serial record of the same cell
  (``CellRecord`` equality, which ignores timing and telemetry): the
  batched ≡ per-cell and distributed ≡ serial contracts.

It returns the failures per cell; a failed cell counts against
``ok_frac`` and makes the benchmark exit non-zero.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["check_session"]


def check_session(
    records: Iterable,
    grid_keys: Iterable[tuple],
    abandoned: "set[tuple]",
    reference: "Mapping[tuple, object] | None",
) -> dict[tuple, list[str]]:
    """Failures per cell key (empty when every check holds)."""
    failures: dict[tuple, list[str]] = {}

    def fail(key, reason: str) -> None:
        failures.setdefault(key, []).append(reason)

    grid = set(grid_keys)
    seen: set[tuple] = set()
    for record in records:
        key = record.key
        if key not in grid:
            fail(key, "record for a cell outside the grid")
        if key in seen:
            fail(key, "cell recorded more than once")
        if key in abandoned:
            fail(key, "cell both recorded and abandoned")
        seen.add(key)
        parts = {k: v for k, v in record.transmissions.items() if k != "total"}
        if sum(parts.values()) != record.transmissions.get("total"):
            fail(
                key,
                f"transmission categories sum to {sum(parts.values())}, "
                f"total is {record.transmissions.get('total')}",
            )
        if record.converged != (record.error <= record.epsilon):
            fail(
                key,
                f"converged={record.converged} but error {record.error!r} "
                f"vs epsilon {record.epsilon!r}",
            )
        if reference is not None:
            expected = reference.get(key)
            if expected is None:
                fail(key, "no per-cell reference record")
            elif record != expected:
                fail(key, "differs from the per-cell serial record")
    for key in sorted(grid - seen - set(abandoned)):
        fail(key, "cell missing: neither recorded nor abandoned")
    return failures
