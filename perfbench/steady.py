"""Run every workload as two separate sets of seeds and compare the sets.

    python3 perfbench/steady.py

For each end-to-end metric it prints each set's median and quartiles, the
quartile spread as a share of the median, and the gap between the two
medians, next to the metric's bound from BENCHMARK.json. Each set is ten
runs of every workload: set A uses seeds 1..10 and set B seeds 101..110.
Raw results go to ``.perfbench_work/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = {"A": 1, "B": 101}
RUNS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_path = ROOT / ".perfbench_work" / "steady.json"
    out_path.parent.mkdir(exist_ok=True)
    raw: dict = {}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        results = {}
        for name, first in SETS.items():
            results[name] = []
            for seed in range(first, first + RUNS):
                r = run_once(spec, workload, seed)
                print(f"{workload} set {name} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)
                results[name].append(r)
        raw[workload] = results
        out_path.write_text(json.dumps(raw, indent=1))

        print(f"\n## {workload} ({RUNS} runs per set)\n")
        print("| metric | bound | A median [q1, q3] | A spread | B median [q1, q3] "
              "| B spread | B vs A |")
        print("| --- | --- | --- | --- | --- | --- | --- |")
        for m in spec["end_to_end"]:
            cells = []
            meds = {}
            for name in SETS:
                q1, med, q3 = quartiles([r["metrics"][m["name"]]["value"]
                                         for r in results[name]])
                meds[name] = med
                spread = (q3 - q1) / med
                worst = max(worst, spread / m["bound"])
                cells += [f"{med:.4g} [{q1:.4g}, {q3:.4g}]", f"{spread:.3f}"]
            gap = (meds["B"] - meds["A"]) / meds["A"]
            worse = gap if m["better"] == "lower" else -gap
            worst = max(worst, worse / m["bound"])
            print(f"| {m['name']} ({m['unit']}) | {m['bound']} | " + " | ".join(cells)
                  + f" | {gap:+.3f} |")
        shares = {name: sorted({r["failed"] / r["attempted"] for r in results[name]})
                  for name in SETS}
        correct = all(r["correct"] for name in SETS for r in results[name])
        print(f"\nfailed share A {shares['A']}, B {shares['B']}; every run correct: {correct}")
    print(f"\nlargest spread or worsening as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
