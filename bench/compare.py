"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/run.py --all > before.txt     # on the parent commit
    python3 bench/run.py --all > after.txt      # on the change
    python3 bench/compare.py before.txt after.txt

Each file holds the stdout of any number of ``run.py`` runs; every
``{"report": ...}`` line is one run.  For each workload and metric the
script prints the median of each side, the relative change, and the number
of runs.  Runs whose Python, mpmath or mpmath backend differ are flagged as
not comparable: the backend alone changes evaluation speed several-fold.
"""

from __future__ import annotations

import json
import statistics
import sys

STAMP_KEYS = ("python", "mpmath", "mpmath_backend")


def load(path: str) -> list:
    reports = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('{"report"'):
                reports.append(json.loads(line)["report"])
    return reports


def stamps(reports: list) -> set:
    return {tuple(r["env"][k] for k in STAMP_KEYS) for r in reports}


def values(reports: list, workload: str) -> dict:
    out = {}
    for r in reports:
        if r["workload"] != workload:
            continue
        for name, m in {**r["metrics"], **r.get("per_layer", {})}.items():
            out.setdefault(name, []).append(m["value"])
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    seen = stamps(before) | stamps(after)
    comparable = len(seen) == 1
    if not comparable:
        print("NOT COMPARABLE: runs differ in " + ", ".join(STAMP_KEYS) + f": {sorted(seen)}")
    for workload in sorted({r["workload"] for r in before + after}):
        a, b = values(before, workload), values(after, workload)
        print(f"\n{workload}")
        for name in sorted(set(a) & set(b)):
            ma, mb = statistics.median(a[name]), statistics.median(b[name])
            change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
            print(f"  {name:<42} {ma:>12.6g} {mb:>12.6g} {change:>8}  runs {len(a[name])}/{len(b[name])}")
    return 0 if comparable else 1


if __name__ == "__main__":
    sys.exit(main())
