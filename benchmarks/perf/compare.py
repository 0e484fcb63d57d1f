"""``compare A.json B.json``: one row per (metric, workload).

A is the base, B the candidate. A row's verdict follows the
choosing-metrics guide: B is ``worse`` (or ``better``) when its median
moved past the metric's bound; when the run-to-run spread of either
side is wider than the bound the row is ``unresolved`` - not ``same`` -
unless every run of one side beats every run of the other. Each ratio
is printed beside the base it is a ratio of.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def verdict(base, cand, better: str, bound: float) -> str:
    """Verdict for one row from the two sides' per-run values."""
    sign = 1.0 if better == "higher" else -1.0
    base = [sign * value for value in base]  # now higher is better
    cand = [sign * value for value in cand]
    base_median = statistics.median(base)
    gain = (statistics.median(cand) - base_median) / abs(base_median)
    moved = (
        "worse" if gain < -bound else "better" if gain > bound else "same"
    )
    noisy = any(
        (max(side) - min(side)) / abs(statistics.median(side)) > bound
        for side in (base, cand)
    )
    if not noisy:
        return moved
    # the runs of a side differ by more than the bound can tell apart:
    # only a clean separation of the two sides still counts
    if min(cand) > max(base):
        return "better" if moved == "better" else "same"
    if max(cand) < min(base) and moved == "worse":
        return "worse"
    return "unresolved"


def rows(base_doc: dict, cand_doc: dict):
    for workload, base in base_doc["workloads"].items():
        cand = cand_doc["workloads"].get(workload)
        if cand is None:
            continue
        for name, limits in base_doc["bounds"].items():
            a = base["end_to_end"][name]
            b = cand["end_to_end"][name]
            yield {
                "metric": name,
                "workload": workload,
                "unit": limits["unit"],
                "base": a,
                "cand": b,
                "bound": limits["bound"],
                "verdict": verdict(
                    a, b, limits["better"], limits["bound"]
                ),
            }


def render(row: dict) -> str:
    a, b = row["base"], row["cand"]
    base_median = statistics.median(a)
    cand_median = statistics.median(b)
    return (
        f"{row['metric']:<22}{row['workload']:<13}"
        f"{base_median:>13.4f} [{min(a):.4f}..{max(a):.4f}] -> "
        f"{cand_median:>13.4f} [{min(b):.4f}..{max(b):.4f}] {row['unit']:<4}"
        f" x{cand_median / base_median:.3f} of {base_median:.4f}"
        f"  bound {row['bound']:.2f}  {row['verdict']}"
    )


def compare_files(base_path: Path, cand_path: Path) -> int:
    """Print the table; exit code 1 when any row is ``worse`` or
    ``unresolved``."""
    base_doc = json.loads(base_path.read_text())
    cand_doc = json.loads(cand_path.read_text())
    print(f"base {base_path}  ->  candidate {cand_path}")
    bad = 0
    for row in rows(base_doc, cand_doc):
        print(render(row))
        bad += row["verdict"] in ("worse", "unresolved")
    print(f"{bad} row(s) worse or unresolved")
    return 1 if bad else 0
