"""Median, quartiles and spread of saved benchmark results.

    python3 perfbench/spread.py RESULT_FILE [RESULT_FILE ...]

Each file holds the standard output of one ``run.py`` call; its last line
is the result object.  Prints, per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance between
the quartiles as a share of the median, which must stay within the
metric's bound in BENCHMARK.json.
"""

import json
import statistics
import sys


def summarize(paths):
    values = {}
    for path in paths:
        with open(path) as fh:
            result = json.loads(fh.read().strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{path}: {result['failed']} of {result['attempted']} operations failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    out = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        out[name] = {
            "n": len(vals),
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": vals,
        }
    return out


def main():
    for name, s in summarize(sys.argv[1:]).items():
        print(
            f"{name}: n={s['n']} median={s['median']:.6g} "
            f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}"
        )


if __name__ == "__main__":
    main()
