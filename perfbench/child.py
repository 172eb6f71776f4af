"""One op of a workload in a fresh interpreter; prints its record as JSON.

Usage: python3 perfbench/child.py <workload> <trace 0|1>

run.py starts this for workloads whose op fills per-process caches, so
that every op pays for them as a new process would.
"""

import json
import sys

from run import load_levelnerve

if __name__ == "__main__":
    load_levelnerve()
    from spans import Tracer
    from workloads import WORKLOADS, measure_op

    workload = WORKLOADS[sys.argv[1]]
    workload.warm_up()
    tracer = None
    if sys.argv[2] == "1":
        tracer = Tracer()
        tracer.install()
    print(json.dumps(measure_op(workload, tracer)))
