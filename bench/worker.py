"""One pass of a workload in a fresh process, so no result survives from an
earlier pass.  Started by ``run.py`` with a JSON config as its argument;
prints one JSON line.

``ready`` is the ``time.perf_counter`` reading once imports and input
generation are done; on Linux that clock is CLOCK_MONOTONIC, shared with the
parent, which subtracts its own reading taken just before the spawn.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import hgptsym  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(cfg):
    if not os.path.abspath(hgptsym.__file__).startswith(SRC + os.sep):
        raise SystemExit("hgptsym imported from %s, not from %s" % (hgptsym.__file__, SRC))
    single = cfg.get("single")
    if single is None:
        reference = oracle.load_reference()
        inputs = workloads.make_inputs(cfg["workload"], cfg["seed"], reference, cfg["tiny"])
    ready = perf_counter()
    out = {"ready": ready}
    if cfg["setup_only"]:
        return out
    tracer = Tracer() if cfg["trace"] else None
    if tracer is not None:
        tracer.install()
    client = workloads.Client(tracer=tracer)
    t0 = perf_counter()
    if single is None:
        workloads.run_pass(cfg["workload"], client, inputs, reference)
    else:
        workloads.single_pass(client, single)
    out["wall_s"] = perf_counter() - t0
    out.update(latencies=client.latencies, attempted=client.attempted,
               failures=client.failures,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write_spans(cfg["spans"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
