"""One workload run in a process of its own.

    python3 perfbench/worker.py JOB RESULT         set up, run the timed phase(s)
    python3 perfbench/worker.py JOB --setup-only   set up, print the set-up time

JOB is a pickle written by run.py (workload, seconds, trace flag, the
generated rounds and the warm-up requests); RESULT receives latencies,
kept outputs, set-up time, peak memory and, when traced, the spans.
Set-up is timed in two parts so that unpickling the generated inputs
stays outside it: the import of the program, then the warm-up pass.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
from time import perf_counter


def _run_phase(rounds, seconds, calls, keep, reports):
    """Whole rounds, one request after another, until `seconds` have passed."""
    records = []
    done = 0
    t_start = perf_counter()
    while True:
        for index, (kind, params) in enumerate(rounds[done % len(rounds)]):
            call = calls[kind]
            t0 = perf_counter()
            try:
                result = call(params, reports)
                error = None
            except Exception as exc:  # a failed request is recorded, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            out = None
            if error is None:
                try:
                    out = keep[kind](result)
                except Exception as exc:
                    error = f"unreadable result: {type(exc).__name__}: {exc}"
            records.append((done, index, kind, latency, out, error))
        done += 1
        if perf_counter() - t_start >= seconds:
            return done, records


def main(argv):
    job_path = argv[1]
    root = os.getcwd()
    t0 = perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import gradedmetrics  # noqa: F401  (timed: part of set-up)
    import calls

    import_s = perf_counter() - t0
    with open(job_path, "rb") as handle:
        job = pickle.load(handle)
    reports = job["reports"]
    t1 = perf_counter()
    for bandwidth in job["bandwidths"]:
        gradedmetrics.zero_function(bandwidth).level_norms(1)
    for kind, params in job["warm"]:
        calls.CALLS[kind](params, reports)
    setup_s = import_s + perf_counter() - t1
    if argv[2] == "--setup-only":
        print(repr(setup_s))
        return 0

    result = {"setup_s": setup_s, "import_s": import_s, "phases": []}
    done, records = _run_phase(job["rounds"], job["seconds"], calls.CALLS, calls.KEEP, reports)
    result["phases"].append({"traced": False, "rounds": done, "records": records})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced_calls = {kind: tracer.wrap("bench." + kind, call) for kind, call in calls.CALLS.items()}
        done, records = _run_phase(job["rounds"], job["seconds"], traced_calls, calls.KEEP, reports)
        result["phases"].append({"traced": True, "rounds": done, "records": records})
        result["spans"] = tracer.dump()
    with open(argv[2], "wb") as handle:
        pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
