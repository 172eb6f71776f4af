"""Benchmark of the levelnerve package, run from the root of a checkout.

Usage:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>

Runs ops of one workload (see workloads.py and README.md) back to back,
single-threaded, until --seconds have passed, at least one op.  Each op's
outputs are checked and fingerprinted.  Human-readable lines come first;
the last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones (op time,
set-up time, peak memory); with --trace 1 every op runs under the span
tracer of spans.py and the metrics are the per-layer ones.  Times are
rescaled to a fixed machine speed by speed.py.

The package is imported from src/ of the checkout this file sits in, and
nowhere else; without it the benchmark exits non-zero and prints no
result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import loop_time, pin, rescale_short

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 4  # per op, and as many again after the last op
SETUP_LOOPS = 3  # reference loops timed before and after each sample
CHILD_TIMEOUT_S = 170

# A fresh interpreter that imports the package and warms the caches a
# user pays for once per process.  It prints the time since argv[1], the
# parent's CLOCK_MONOTONIC reading just before the spawn: that clock is
# system-wide, and the parent's own wait for the child would round the
# time to its polling interval.
_SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
import levelnerve.complexes
from levelnerve.surface import presentation
from levelnerve.catalog import multicurve_catalog
presentation({g}, {n})
if {warm_catalog}:
    multicurve_catalog({g}, {n})
import time
print(time.monotonic() - float(sys.argv[1]))
"""


def load_levelnerve():
    """Put this checkout's src/ first on sys.path and import levelnerve."""
    if not (SRC / "levelnerve" / "__init__.py").is_file():
        sys.exit(f"error: no levelnerve package under {SRC}")
    sys.path.insert(0, str(SRC))
    import levelnerve
    if Path(levelnerve.__file__).resolve().parent != SRC / "levelnerve":
        sys.exit(f"error: levelnerve imported from {levelnerve.__file__}")


def setup_samples(workload, count):
    """Times of `count` fresh interpreters doing the one-off set-up, each
    rescaled by reference loops timed just before and after it."""
    g, n = workload.signature
    code = _SETUP_CODE.format(src=str(SRC), g=g, n=n,
                              warm_catalog=not workload.fresh)
    samples = []
    for _ in range(count):
        before = [loop_time() for _ in range(SETUP_LOOPS)]
        proc = subprocess.run(
            [sys.executable, "-c", code, repr(time.monotonic())],
            capture_output=True, text=True, check=True, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S)
        after = [loop_time() for _ in range(SETUP_LOOPS)]
        samples.append(rescale_short(float(proc.stdout), before, after))
    return samples


def fresh_op(workload, trace):
    """One op in a new interpreter (child.py); its record, or a failure."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload.name, str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"problems": [f"child exited {proc.returncode}: {tail[0]}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded only: every input is a fixed "
                             "signature of deterministic algebra")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    pin()
    load_levelnerve()
    from spans import Tracer
    from workloads import WORKLOADS, measure_op

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    tracer = None
    if not workload.fresh:
        workload.warm_up()
        if args.trace:
            tracer = Tracer()
            tracer.install()

    # Set-up samples are spread over the whole run, before every op and
    # after the last, so that they see the same machine conditions as
    # the ops do.
    setup = []
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < args.seconds:
        if args.trace == 0:
            setup += setup_samples(workload, SETUP_SAMPLES)
        if workload.fresh:
            records.append(fresh_op(workload, args.trace))
        else:
            records.append(measure_op(workload, tracer))

    if args.trace == 0:
        setup += setup_samples(workload, SETUP_SAMPLES)

    failed = sum(1 for r in records if r["problems"])
    fingerprints = {r.get("fingerprint") for r in records}
    problems = [p for r in records for p in r["problems"]]
    if len(fingerprints) > 1:
        problems.append(f"ops gave {len(fingerprints)} different outputs")
    op_s = statistics.median(r["op_s"] for r in records if "op_s" in r)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(records)}")
    print(f"op_s {op_s} s (median of {len(records)})")
    raw = statistics.median(r["raw_op_s"] for r in records)
    print(f"raw_op_s {raw} s (wall time, not rescaled)")
    if args.trace == 0:
        phases = {}
        for r in records:
            for name, value in r.get("phases", {}).items():
                phases.setdefault(name, []).append(value)
        for name, values in phases.items():
            print(f"{name} {statistics.median(values)} s "
                  f"(median of {len(values)})")
        setup_s = statistics.median(setup)
        print(f"setup_s {setup_s} s (median of {len(setup)})")
        # read after the first op, so the number of ops a run fits in
        # does not change it
        peak = records[0].get("rss_mb", 0.0)
        print(f"peak_rss_mb {peak} MB (after the first op)")
        metrics = {"op_s": {"value": op_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak, "unit": "MB"}}
    else:
        layered = [r["layers"] for r in records if "layers" in r]
        metrics = {"trace.op_s": {"value": op_s, "unit": "s"}}
        for name in (layered[0] if layered else ()):
            metrics[name] = {
                "value": statistics.median(lay[name] for lay in layered),
                "unit": _unit(name)}
        for name, m in metrics.items():
            print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_ratio {failed / len(records)} ratio")

    reference = json.loads((HERE / "reference.json").read_text())
    ref = reference.get(workload.name, {}).get("fingerprint")
    fingerprint = sorted(fingerprints, key=str)[0]
    verdict = ("no reference" if ref is None else
               "same as reference" if fingerprint == ref else
               "DIFFERS from reference")
    print(f"fingerprint {fingerprint} ({verdict})")
    counts = next((r["counts"] for r in records if "counts" in r), None)
    print(f"counts {json.dumps(counts)}")
    for p in problems[:10]:
        print(f"problem: {p}")

    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
