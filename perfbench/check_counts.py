"""The benchmark's own test: per-layer counts repeat exactly.

Usage: python3 perfbench/check_counts.py [--workload NAME ...]

Runs the traced benchmark twice per workload, under two different string
hash seeds, and requires every count and ratio metric (span calls, orbit
elements, stable-graph candidates, ratios) and the output fingerprint to
agree exactly, and both runs to agree on whether their checks passed.
Exits 1 on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from run import ROOT, load_levelnerve


def traced_run(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(hash_seed), "--seconds", "1",
         "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, env=env, check=True)
    lines = proc.stdout.splitlines()
    fingerprint = next(line.split()[1] for line in lines
                       if line.startswith("fingerprint "))
    return json.loads(lines[-1]), fingerprint


def main():
    load_levelnerve()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    names = parser.parse_args().workload or sorted(WORKLOADS)
    mismatches = 0
    for name in names:
        (first, fp1), (second, fp2) = traced_run(name, 1), traced_run(name, 2)
        counted = [k for k, m in first["metrics"].items()
                   if m["unit"] in ("count", "ratio")]
        diff = [k for k in counted
                if first["metrics"][k] != second["metrics"].get(k)]
        if fp1 != fp2:
            diff.append("fingerprint")
        if first["correct"] != second["correct"]:
            diff.append("correct")
        mismatches += len(diff)
        print(f"{name}: {len(counted)} count metrics, "
              f"correct={first['correct']}, "
              + ("all repeat" if not diff else f"differ: {', '.join(diff)}"))
    sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
