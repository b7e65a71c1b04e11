"""Benchmark of gradedmetrics: certified requests in a closed loop.

    python3 perfbench/run.py --workload seq-certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each run makes its inputs from the
seed, sets the program up in a fresh process (timed as `setup_s`, four
more set-up-only processes give the median), then sends one request
after another for whole rounds of the workload's mix until `--seconds`
have passed.  Afterwards, outside every timed interval, each output is
checked against a computation made apart from the program.  The last
line of standard output is one JSON object: correct, attempted, failed
and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Pin the BLAS and OpenMP pools before numpy loads, here and in the workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import pickle  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import checks  # noqa: E402  (numpy loads here, after the pinning)
import mixes  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4  # set-up-only processes, besides the measuring worker
INPUT_ROUNDS = 40  # generated rounds; a longer run cycles through them
RUN_TIMEOUT_S = 170


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _worker(args, timeout):
    proc = subprocess.run(
        [sys.executable, WORKER, *args], capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def _classify(kind, out, error, problems):
    """'ok', a known program fault ('F1', 'F2'), or 'unexpected'."""
    if error is not None:
        return "unexpected"
    exit_code = out.get("exit", 0) if kind.startswith("cli:") else 0
    if exit_code == 2 and kind == "cli:neumann-invert":
        failed = [c["name"] for c in out["certificates"] if not c.get("holds", True)]
        return "F2" if failed == [checks.F2_CERTIFICATE] and not problems else "unexpected"
    if not problems:
        return "ok"
    return "F1" if all(p.startswith("F1:") for p in problems) else "unexpected"


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _round_sums(phase):
    """Summed request latency of each round of the phase."""
    sums = [0.0] * phase["rounds"]
    for round_index, _, _, latency, _, _ in phase["records"]:
        sums[round_index] += latency
    return sums


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gradedmetrics", "__init__.py")):
        print("perfbench: run from the root of a gradedmetrics checkout (src/gradedmetrics missing)",
              file=sys.stderr)
        return 2
    if args.workload not in mixes.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(mixes.WORKLOADS)}",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    job_dir = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(job_dir, exist_ok=True)
    try:
        job_path = os.path.join(job_dir, "job.pkl")
        result_path = os.path.join(job_dir, "result.pkl")
        job = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "rounds": mixes.make_rounds(args.workload, args.seed, INPUT_ROUNDS),
            "warm": mixes.warm_round(args.workload),
            "bandwidths": mixes.FN_BANDWIDTHS[args.workload],
            "reports": os.path.join(job_dir, "reports"),
        }
        with open(job_path, "wb") as handle:
            pickle.dump(job, handle, protocol=pickle.HIGHEST_PROTOCOL)
        setups = [float(_worker([job_path, "--setup-only"], 60)) for _ in range(SETUP_PROBES)]
        _worker([job_path, result_path], RUN_TIMEOUT_S - 10)
        with open(result_path, "rb") as handle:
            result = pickle.load(handle)
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)
    setups.append(result["setup_s"])

    # ---- checks, outside every timed interval
    tally = {"ok": 0, "F1": 0, "F2": 0, "unexpected": 0}
    unexpected = []
    samples = {}
    length_checked = length_met = 0
    for phase in result["phases"]:
        for round_index, index, kind, latency, out, error in phase["records"]:
            params = job["rounds"][round_index % len(job["rounds"])][index][1]
            problems = checks.check(kind, params, out) if error is None else []
            verdict = _classify(kind, out, error, problems)
            tally[verdict] += 1
            if verdict == "unexpected" and len(unexpected) < 20:
                unexpected.append(f"{kind}: {error or problems or out.get('certificates')}")
            if verdict == "ok":
                samples.setdefault(kind, (params, out))
            if kind in checks.LENGTH_KINDS and error is None and out["status"] == "converged":
                length_checked += 1
                length_met += not problems
    misses = checks.self_test(samples)
    attempted = sum(tally.values())
    failed = attempted - tally["ok"]
    correct = tally["unexpected"] == 0 and not misses

    plain = result["phases"][0]
    latencies = [rec[3] for rec in plain["records"]]
    if args.trace:
        import tracing

        traced = result["phases"][1]
        metrics = tracing.layer_metrics(result["spans"], traced["rounds"])
        metrics["length.tol_met_ratio"] = length_met / length_checked if length_checked else 0.0
        metrics["trace.overhead_s"] = statistics.median(_round_sums(traced)) - statistics.median(_round_sums(plain))
        with open(os.path.join(out_dir, f"{args.workload}.spans.pkl"), "wb") as handle:
            pickle.dump(result["spans"], handle, protocol=pickle.HIGHEST_PROTOCOL)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(_round_sums(plain)),
            "req_p50_ms": 1e3 * statistics.median(latencies),
            "req_p90_ms": 1e3 * _percentile(latencies, 90),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    def label(rec):
        params = job["rounds"][rec[0] % len(job["rounds"])][rec[1]][1]
        size = params.get("depth", params.get("bandwidth", params.get("mode", "")))
        return f"{rec[2]}@{size}"

    by_kind = {}
    for rec in plain["records"]:
        by_kind.setdefault(label(rec), []).append(rec[3])
    order = sorted(plain["records"], key=lambda rec: rec[3])
    around = {
        q: sorted({label(rec) for rec in order[int(len(order) * (q - 5) / 100): int(len(order) * (q + 5) / 100) + 1]})
        for q in (50, 90)
    }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(),
        "rounds": [p["rounds"] for p in result["phases"]],
        "requests_per_round": len(job["rounds"][0]),
        "verdicts": tally,
        "unexpected": unexpected,
        "self_test_misses": misses,
        "setup_samples_s": setups,
        "round_wall_s": _round_sums(plain),
        "kinds_median_ms": {k: round(1e3 * statistics.median(v), 3) for k, v in sorted(by_kind.items())},
        "kinds_within_5pct_of_p50_p90": around,
    }
    line = json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })
    with open(os.path.join(out_dir, f"{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(summary, indent=1) + "\n" + line + "\n")
    print(json.dumps(summary))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
