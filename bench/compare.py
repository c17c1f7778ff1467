#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or check the spread of one set.

    python3 bench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the saved stdout of ``bench/run.py`` runs, one file per
run, for example::

    for s in $(seq 1 10); do
        python3 bench/run.py --workload analyze-mix --seed $s --seconds 20 \\
            --trace 0 > bench/results/base/analyze-mix.$s.txt
    done

For every workload and metric it prints the median and quartiles of each
set, the spread (interquartile distance over the median) and, for two sets,
how much worse the new median is.  Bounds come from BENCHMARK.json: a
spread above the bound marks the metric unresolved, a worsening above it a
regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """{(workload, trace): {"runs": [...], metric: [values]}} from saved runs."""
    sets: dict = {}
    for path in sorted(directory.iterdir()):
        lines = path.read_text().splitlines()
        header = next((json.loads(ln[len("bench: "):]) for ln in lines
                       if ln.startswith("bench: ")), None)
        if header is None or not lines:
            continue
        result = json.loads(lines[-1])
        entry = sets.setdefault((header["workload"], header["trace"]), {"runs": []})
        entry["runs"].append(result)
        for name, m in result["metrics"].items():
            entry.setdefault(name, []).append(m["value"])
    return sets


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads(SPEC.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(Path(d)) for d in argv]
    for key in sorted(sets[0]):
        workload, trace = key
        runs = [s.get(key, {"runs": []})["runs"] for s in sets]
        print(f"== {workload} (trace {trace}); runs, failed/attempted: " + "; ".join(
            f"{len(r)}, {sum(x['failed'] for x in r)}/{sum(x['attempted'] for x in r)}"
            for r in runs))
        for name in sets[0][key]:
            if name == "runs":
                continue
            cells, sums = [], []
            for s in sets:
                values = s.get(key, {}).get(name)
                if not values:
                    cells.append("-")
                    continue
                med, q1, q3, spread = summary(values)
                sums.append((med, spread))
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
            verdict = ""
            if name in e2e:
                bound, lower = e2e[name]["bound"], e2e[name]["better"] == "lower"
                if any(spread > bound for _, spread in sums):
                    verdict = f"unresolved (spread > {bound})"
                elif len(sums) == 2:
                    (a, _), (b, _) = sums
                    worse = (b - a) / a if lower else (a - b) / a
                    verdict = (f"worse by {worse:.1%}, " if worse > 0 else
                               f"better by {-worse:.1%}, ") + (
                        "REGRESSION" if worse > bound else f"within bound {bound}")
                else:
                    verdict = f"spread within bound {bound}"
            print(f"  {name:34s} " + " | ".join(cells) + (f"  -> {verdict}" if verdict else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
