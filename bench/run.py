"""tenfun benchmark launcher.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a tenfun checkout (the package is imported from
./src).  Pins BLAS/OpenMP threads to 1, measures set-up in fresh processes,
runs one measuring process (bench/worker.py), and prints the environment,
then one JSON result as the last line: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1.  Exits non-zero without a result if the
checkout has no tenfun sources or any step fails.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("taylor_highorder", "strain_update", "near_confluent", "cli_jobs")
SETUP_PROBES = 3
DEADLINE_S = 170.0
UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "ok_frac": "ratio", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith("ms_p50"):
        return "ms"
    if name.endswith("_per_op"):
        return "count"
    return "ratio"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def call(argv, env, deadline):
    """Run one child to completion within the deadline; its last stdout line as JSON."""
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{os.path.basename(argv[1])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tenfun", "__init__.py")):
        print(f"error: no tenfun sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = src
    env.pop("PYTHONHOME", None)

    work = os.path.join(root, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                probe_dir = os.path.join(work, f"probe-{i}")
                setups.append(call(worker + ["--workdir", probe_dir, "--probe"], env,
                                   deadline)["setup_s"])
                shutil.rmtree(probe_dir, ignore_errors=True)
        res = call(worker + ["--workdir", os.path.join(work, "run"), "--trace",
                             str(args.trace)], env, deadline)
        # keep the span file, drop the job documents
        shutil.rmtree(os.path.join(work, "run", "docs"), ignore_errors=True)
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": res["numpy"],
        "cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "checked": res["checked"], "raised": res["raised"], "bound": res["bound"],
        "setup_samples": setups + [res["setup_s"]], "speed": res["speed"],
    }
    if args.trace:
        info["spans"] = os.path.relpath(os.path.join(work, "run", "spans.json"), root)
        if "scan" in res:
            info["accuracy_scan"] = res["scan"]
        values = res["layers"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = dict(res["metrics"], setup_s=statistics.median(setups + [res["setup_s"]]))
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
