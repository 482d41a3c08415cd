"""The measuring process: set-up, timed closed loop, output checks, metrics.

Started by run.py with BLAS/OpenMP threads pinned to 1.  Prints one JSON
object as its last line.  ``--probe`` stops after set-up and reports only
``setup_s``.
"""
import time

_T0 = time.perf_counter()
import tenfun  # noqa: E402  (timed: part of setup_s)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Calibration probe.  The shared machine's speed swings by up to 2x over
# seconds to minutes (other tenants), slowing the probe and the ops alike.
# End-to-end times are scaled to the reference speed, at which the probe
# takes REF_PROBE_S: each op's time is multiplied by REF_PROBE_S over the
# mean of the probes taken just before and just after it.  The probe mixes
# small matrix products, eigh calls and a Python loop, like the ops do.
# Probe times are smoothed by a running median over PROBE_WINDOW probes on
# each side, which drops a probe that a preemption inflated but follows the
# slower swings.
REF_PROBE_S = 4.0e-4
PROBE_EVERY_S = 0.01
PROBE_WINDOW = 5
_PROBE_M = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 3.0]])


def probe() -> float:
    t0 = time.perf_counter()
    x = _PROBE_M
    for _ in range(100):
        x = _PROBE_M @ x @ _PROBE_M
        x = x / x[0, 0]
    for _ in range(10):
        np.linalg.eigh(_PROBE_M)
    s = 0
    for i in range(2000):
        s += i * i
    return time.perf_counter() - t0


def speed_factors(n_ops: int, probes: list) -> np.ndarray:
    """REF_PROBE_S / probe time around each op; probes are (op index, seconds)."""
    at = np.array([i for i, _ in probes])
    sec = np.pad(np.array([s for _, s in probes]), PROBE_WINDOW, mode="edge")
    sec = np.median(np.lib.stride_tricks.sliding_window_view(sec, 2 * PROBE_WINDOW + 1), axis=1)
    ops = np.arange(n_ops)
    before = sec[np.searchsorted(at, ops, side="right") - 1]
    after = sec[np.minimum(np.searchsorted(at, ops, side="right"), len(sec) - 1)]
    return REF_PROBE_S / (0.5 * (before + after))


def replay(wl, chunks, tracer=None):
    """Run kept chunks again, with spans if ``tracer`` is given.

    Returns probe-scaled latencies and status counts."""
    lat, statuses, probes = array("d"), Counter(), []
    since_probe = PROBE_EVERY_S
    for ops in chunks:
        gc.collect()
        outs = []
        for op in ops:
            if since_probe >= PROBE_EVERY_S:
                probes.append((len(lat), probe()))
                since_probe = 0.0
            if tracer is None:
                out, dt = wl.timed(op)
            else:
                tracer.op = len(lat)
                out, dt = wl.timed_traced(op, tracer)
            lat.append(dt)
            outs.append(out)
            since_probe += dt
        statuses.update(wl.check_all(ops, outs))
    probes.append((len(lat), probe()))
    return np.array(lat) * speed_factors(len(lat), probes), statuses


def measure(wl, seconds, first_chunk=None, keep=False):
    """Closed loop over fresh chunks until ``seconds`` of op time is spent.

    Returns raw latencies, status counts, the probes (for speed_factors)
    and, with ``keep``, the ops run, chunk by chunk, for a replay.  Per-op data
    is kept compact so that the process's memory does not grow with the
    number of ops."""
    lat, statuses, chunks, probes = array("d"), Counter(), [], []
    timed, since_probe, k = 0.0, PROBE_EVERY_S, 0
    while timed < seconds:
        ops = first_chunk if (k == 0 and first_chunk is not None) else wl.chunk(k)
        wl.prepare(ops)
        gc.collect()
        outs = []
        for op in ops:
            if since_probe >= PROBE_EVERY_S:
                probes.append((len(lat), probe()))
                since_probe = 0.0
            out, dt = wl.timed(op)
            lat.append(dt)
            outs.append(out)
            timed += dt
            since_probe += dt
            if timed >= seconds:
                break
        if keep:
            chunks.append(ops[:len(outs)])
        statuses.update(wl.check_all(ops[:len(outs)], outs))
        k += 1
    probes.append((len(lat), probe()))
    return lat, statuses, probes, chunks


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    wl = workloads.make(args.workload, args.seed, args.workdir, dict(os.environ))
    # set-up: import (above), the CLI's first job documents, untimed warm-up ops
    t = time.perf_counter()
    first = wl.chunk(0) if args.workload == "cli_jobs" else None
    docs_s = time.perf_counter() - t
    warm = wl.warmup()
    t = time.perf_counter()
    for op in warm:
        wl.timed(op)
    setup_s = IMPORT_S + docs_s + time.perf_counter() - t
    setup_s *= REF_PROBE_S / statistics.median(probe() for _ in range(9))
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "numpy": np.__version__}
    try:
        if not args.trace:
            lat, statuses, probes, _ = measure(wl, args.seconds, first)
            # read before the post-processing, whose buffers grow with the op count
            peak_mb = wl.peak_rss_mb()
            speed = speed_factors(len(lat), probes)
        else:
            # a third of the time on fresh ops, then the same ops replayed
            # untraced and traced: the two replays give the tracing overhead
            _, _, _, chunks = measure(wl, args.seconds / 3, first, keep=True)
            untraced, _ = replay(wl, chunks)
            scanned = wl.scan()
            tracer = tracing.Tracer()
            tracing.install(tracer)
            counter = [0]
            wl.counter = counter
            traced, statuses = replay(wl, chunks, tracer)
            lat = list(traced)
            layers = tracing.layer_metrics(tracer, len(lat), scanned or statuses, counter[0])
            layers["trace.overhead_frac"] = float(traced.sum() / untraced.sum()) - 1.0
            speed = np.ones(len(lat))
            peak_mb = wl.peak_rss_mb()
            tracer.dump(os.path.join(args.workdir, "spans.json"))
            result["layers"] = layers
            if scanned is not None:
                result["scan"] = dict(scanned)
    finally:
        wl.close()

    attempted = len(lat)
    checked = sum(statuses.values())
    failed = checked - statuses["ok"]
    scaled = np.array(lat) * speed
    result.update({
        "attempted": attempted,
        "failed": failed,
        "raised": statuses["raised"],
        "checked": checked,
        "correct": checked == attempted and failed == 0,
        "speed": float(np.median(speed)),
        "bound": wl.bound,
        "metrics": {
            "ops_per_s": attempted / float(scaled.sum()),
            "op_ms_p50": 1e3 * float(np.median(scaled)),
            "op_ms_p90": 1e3 * float(np.percentile(scaled, 90)),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_mb,
        },
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
