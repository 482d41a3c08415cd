"""Runs the tenfun CLI with spans on, for the traced cli_jobs run.

Usage: python cli_shim.py <spawn perf_counter> <spans.json> <cli args...>
Records interpreter start-up (spawn to the first line here), the numpy and
tenfun imports, and the spans of the CLI's own calls, then exits with the
CLI's exit code.
"""
import time

FIRST = time.perf_counter()
import numpy  # noqa: E402,F401

NUMPY = time.perf_counter()
import tenfun.cli  # noqa: E402

TENFUN = time.perf_counter()

import sys  # noqa: E402

import tracing  # noqa: E402


def main():
    spawn, path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.add("cli.startup.interp", spawn, FIRST)
    tracer.add("cli.startup.numpy", FIRST, NUMPY)
    tracer.add("cli.startup.tenfun", NUMPY, TENFUN)
    tracing.install(tracer)
    counter = [0]
    parse = tenfun.cli.parse_fn_spec
    tenfun.cli.parse_fn_spec = lambda spec: tracing.CountingFn(parse(spec), counter)
    try:
        code = tenfun.cli.main(argv)
    finally:
        tracer.counts["deriv_calls"] = counter[0]
        tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
