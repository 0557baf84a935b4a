"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT.json [PARENT.json ...] -- CHANGE.json [...]

Each file is a results document written by ``run.py`` (``--output``).  Give
the files of both sides in the order they ran, so that the i-th parent run
and the i-th change run form a pair; run at least ten alternating pairs.

For every (workload, end-to-end metric) pair the tool prints each side's
median and quartiles, the share of pairs the change won (ties count for
neither side) and a verdict, using the bounds in ``BENCHMARK.json``:

* ``improved``: better median, won at least nine tenths of the pairs, and
  the medians differ by more than the parent's interquartile range;
* ``regressed``: median worse by more than the bound, with the parent's
  spread within the bound or every change run worse than every parent run;
* ``unresolved``: otherwise, when the parent's spread is wider than the
  bound and not every change run is better than every parent run;
* ``unchanged``: otherwise.

It also says, per workload, whether the simulated results moved (the
``stats_digest`` of the runs) and whether any job failed.  The exit code is
1 when some pair regressed or a change run had failures, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

from metrics import quartiles

ROOT = Path(__file__).resolve().parent.parent

#: Share of pairs the change must win to count as improved.
WIN_SHARE = 0.9


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """Judge one (workload, metric) pair of run series."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    gain = sign * (c["value"] - p["value"])
    parent_iqr = p["q3"] - p["q1"]
    relative_spread = parent_iqr / abs(p["value"]) if p["value"] else 0.0
    worse_by = -gain / abs(p["value"]) if p["value"] else 0.0
    all_better = all(sign * (b - a) > 0 for a in parent for b in change)
    all_worse = all(sign * (b - a) < 0 for a in parent for b in change)
    if gain > 0 and pairs and wins >= WIN_SHARE * len(pairs) and gain > parent_iqr:
        outcome = "improved"
    elif worse_by > bound and (relative_spread <= bound or all_worse):
        outcome = "regressed"
    elif relative_spread > bound and not all_better:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "parent": p,
        "change": c,
        "win_share": wins / len(pairs) if pairs else 0.0,
        "verdict": outcome,
    }


def load(paths: Sequence[str]) -> List[Mapping]:
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


def compare(
    parents: Sequence[Mapping], changes: Sequence[Mapping], declared: Sequence[Mapping]
) -> List[Dict[str, object]]:
    """One row per (workload, end-to-end metric) measured on both sides."""
    rows = []
    workloads = [
        name
        for name in parents[0]["workloads"]
        if all(name in doc["workloads"] for doc in list(parents) + list(changes))
    ]
    for workload in workloads:
        for entry in declared:
            name = entry["name"]
            series = [
                [
                    doc["workloads"][workload]["end_to_end"][name]["value"]
                    for doc in side
                ]
                for side in (parents, changes)
            ]
            row = verdict(series[0], series[1], entry["better"], entry["bound"])
            row.update(workload=workload, metric=name, unit=entry["unit"])
            rows.append(row)
    return rows


def main(argv: Sequence[str] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if "--" not in args or args.index("--") == 0 or args[-1] == "--":
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    split = args.index("--")
    parents, changes = load(args[:split]), load(args[split + 1 :])
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]

    regressed = False
    for row in compare(parents, changes, declared):
        p, c = row["parent"], row["change"]
        print(
            f"{row['workload']:18s} {row['metric']:14s} "
            f"parent {p['value']:10.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
            f"change {c['value']:10.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
            f"{row['unit']:9s} wins {row['win_share']:4.0%}  {row['verdict']}"
        )
        regressed |= row["verdict"] == "regressed"
    for workload in parents[0]["workloads"]:
        results = [
            [doc["workloads"][workload] for doc in docs if workload in doc["workloads"]]
            for docs in (parents, changes)
        ]
        digests = [{result["stats_digest"] for result in side} for side in results]
        moved = "unchanged" if digests[0] == digests[1] else "MOVED"
        failed = sum(result["failed"] for result in results[1])
        print(
            f"{workload:18s} simulated results {moved}; "
            f"change runs failed {failed} jobs"
        )
        regressed |= failed > 0
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
