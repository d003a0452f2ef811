"""One repetition of a workload in a fresh interpreter.

Usage: ``python3 perfbench/rep.py <workload> <slot> <spans.jsonl or ->``

``run.py`` starts one of these per repetition, so every repetition pays
what a user's ``python -m repro run`` pays: interpreter start, imports,
lazy tables and cold caches, and nothing a previous repetition left in the
process can make it cheaper.  With a spans path the repetition is traced
and the spans are written there.

Prints one JSON object: ``first_trial`` (``time.monotonic()`` when the
first trial built its world — the end of set-up), ``wall_s`` (the
``run_experiment`` calls, end to end), ``peak_rss_mb``, ``digest`` of the
result tables (null when a trial raised), ``error``, the ``reference``
lines, and for a traced repetition the per-layer ``metrics`` and the
``counts`` that must repeat exactly at one seed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))


def mark_first_trial(api, record: dict) -> None:
    """Record when the first :class:`~repro.api.Session` is built, then
    restore the constructor so later trials run untouched."""
    init = api.Session.__init__

    def first(session, *args, **kwargs):
        record["first_trial"] = time.monotonic()
        api.Session.__init__ = init
        init(session, *args, **kwargs)

    api.Session.__init__ = first


def main() -> None:
    name, slot, spans_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    from workloads import WORKLOADS, digest, prepare_environment, \
        run_campaigns

    import repro.experiments  # the registry loads before timing starts
    from repro import api

    prepare_environment()
    workload = WORKLOADS[name]
    record: dict = {"first_trial": None, "digest": None, "error": None,
                    "reference": [], "metrics": None, "counts": None}
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    mark_first_trial(api, record)
    start = time.perf_counter()
    try:
        results = run_campaigns(
            workload, slot, OUT,
            None if tracer is None else
            lambda campaign, call: tracer.root(
                f"{campaign.experiment}:{campaign.kwargs['seed']}", call))
    except Exception:  # a raising trial fails the repetition
        record["error"] = traceback.format_exc()
        results = None
    record["wall_s"] = time.perf_counter() - start
    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        from tracer import analyse

        tracer.uninstall()
        record["metrics"] = analyse(tracer, record["wall_s"])
        record["counts"] = tracer.work_counts()
        tracer.write(spans_path)
    if results is not None:
        record["digest"] = digest(results)
        record["reference"] = workload.reference(results)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
