"""Compare two sets of benchmark runs, one row per workload.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds, at any depth, the result records ``run.py`` writes
(``--results``).
Only untraced runs whose checks passed are compared; runs that failed a
check are skipped and counted.  A seed may have several runs on a side
(for instance from an alternating schedule); every run counts towards the
quartiles, and seed pairs compare the per-seed medians.  For every
end-to-end metric named in
``BENCHMARK.json`` a row gives both sides' median and quartiles, the ratio
new/base with the base median, and a verdict:

* ``improved`` -- at least ten seed-paired runs, the new side wins at least
  nine tenths of the pairs, and the medians differ by more than the base
  side's interquartile range;
* ``unresolved`` -- either side's interquartile range is wider than the
  metric's bound, unless every new run beats every base run;
* ``worse`` -- the new median is worse than the base median by more than the
  bound;
* ``within bound`` -- otherwise.

Results taken with different kernel backends or core counts are refused.
Exits 1 when any metric is ``worse``, 2 when the sets are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
COMPARABLE = ("nproc", "kernel_backend", "seconds")


def load(directory: Path) -> List[Dict[str, Any]]:
    records = []
    skipped = 0
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text())
        if record.get("env", {}).get("trace") != 0:
            continue
        if record.get("correct") is not True:
            skipped += 1
            continue
        records.append(record)
    if skipped:
        print(f"compare: skipped {skipped} run(s) in {directory} that failed a check")
    return records


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    base: Dict[int, List[float]], new: Dict[int, List[float]], better: str, bound: float
) -> Tuple[str, Tuple[float, float, float], Tuple[float, float, float]]:
    sign = 1.0 if better == "lower" else -1.0
    base_values = [v for vs in base.values() for v in vs]
    new_values = [v for vs in new.values() for v in vs]
    b = quartiles(base_values)
    n = quartiles(new_values)
    pairs = [
        (statistics.median(base[s]), statistics.median(new[s]))
        for s in base.keys() & new.keys()
    ]
    wins = sum(sign * (nv - bv) < 0 for bv, nv in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (n[1] - b[1]) < -(b[2] - b[0]):
        return "improved", b, n
    spread = max((b[2] - b[0]) / abs(b[1]), (n[2] - n[0]) / abs(n[1]))
    all_better = max(sign * v for v in new_values) < min(sign * v for v in base_values)
    if spread > bound and not all_better:
        return "unresolved", b, n
    if sign * (n[1] - b[1]) / abs(b[1]) > bound:
        return "worse", b, n
    return "within bound", b, n


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sides = {"base": load(args.base), "new": load(args.new)}
    for side, records in sides.items():
        if not records:
            print(f"compare: no untraced result records in {getattr(args, side)}")
            return 2
    envs = {tuple(r["env"][k] for k in COMPARABLE) for rs in sides.values() for r in rs}
    if len(envs) > 1:
        listed = ", ".join(str(dict(zip(COMPARABLE, env))) for env in sorted(envs, key=str))
        print(f"compare: refusing to compare runs from different environments: {listed}")
        return 2
    workloads = sorted(
        {r["env"]["workload"] for r in sides["base"]}
        & {r["env"]["workload"] for r in sides["new"]}
    )
    any_worse = False
    for workload in workloads:
        by_seed: Dict[str, Dict[int, List[Dict[str, Any]]]] = {}
        for side, rs in sides.items():
            by_seed[side] = {}
            for r in rs:
                if r["env"]["workload"] == workload:
                    by_seed[side].setdefault(r["env"]["seed"], []).append(r)
        cells = []
        for metric in metrics:
            name = metric["name"]
            base, new = (
                {s: [r["end_to_end"][name] for r in runs] for s, runs in by_seed[side].items()}
                for side in ("base", "new")
            )
            label, b, n = verdict(base, new, metric["better"], metric["bound"])
            any_worse |= label == "worse"
            cells.append(
                f"{name} {b[1]:.4g} [{b[0]:.4g},{b[2]:.4g}] -> {n[1]:.4g} "
                f"[{n[0]:.4g},{n[2]:.4g}] {n[1] / b[1]:.3f}x of {b[1]:.4g} {label}"
            )
        counts = [sum(len(runs) for runs in by_seed[side].values()) for side in ("base", "new")]
        runs = f"{counts[0]}v{counts[1]} runs"
        print(f"{workload} ({runs}): " + " | ".join(cells))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
