"""Compare two sets of benchmark results, one JSON result line per run.

    python3 benchmarks/compare.py parent.jsonl change.jsonl

Line i of each file should come from the same workload and seed, so the
lines form pairs. For every metric this prints each side's median and
quartiles, how many pairs the change wins, and a verdict: ``gain`` when the
change wins at least nine tenths of the pairs and the medians differ by more
than the parent's quartile spread, ``regression`` when the change's median is
worse than the parent's by more than the bound in BENCHMARK.json, else ``-``.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["metrics"] for line in fh if line.strip()]


def compare(parent: list[dict], change: list[dict]) -> list[str]:
    rows = []
    for name in parent[0]:
        a = [r[name]["value"] for r in parent]
        b = [r[name]["value"] for r in change]
        sign = 1 if METRICS[name]["better"] == "higher" else -1
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        ma, mb = qa[1], qb[1]
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        verdict = "-"
        bound = METRICS[name].get("bound")
        if wins >= 0.9 * len(a) and abs(mb - ma) > qa[2] - qa[0]:
            verdict = "gain"
        elif bound is not None and sign * (mb - ma) < -bound * abs(ma):
            verdict = "regression"
        rows.append(f"{name:44s} parent {ma:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                    f"change {mb:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                    f"wins {wins}/{len(a)}  {verdict}")
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    parent, change = load(args[0]), load(args[1])
    if len(parent) != len(change) or len(parent) < 2:
        print("error: need the same number (at least 2) of runs on each side",
              file=sys.stderr)
        return 1
    print("\n".join(compare(parent, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
