"""Runs CLI jobs for cli_jobs, one at a time, from a small process.

A child's peak RSS, as the kernel reports it, includes the memory of the
process it was spawned from, so jobs are spawned from here (plain Python,
no numpy) instead of from the measuring process.  Protocol: one JSON
request per line on stdin, {"argv": [...], "out": path}; "{spawn}" in argv
is replaced by the spawn time.  The job's stdout goes to ``out``; the reply
is {"code", "seconds", "maxrss_kb"}, with ``seconds`` from spawn to exit.
A job still running after TIMEOUT_S is killed.  Exits at end of input.
"""
import json
import os
import signal
import subprocess
import sys
import time

TIMEOUT_S = 60


def main():
    current = []
    signal.signal(signal.SIGALRM, lambda *_: current and current[0].kill())
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "w", encoding="utf-8") as out:
            t0 = time.perf_counter()
            argv = [a.replace("{spawn}", repr(t0)) for a in req["argv"]]
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
            current[:] = [proc]
            signal.alarm(TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
            signal.alarm(0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"code": proc.returncode, "seconds": t1 - t0,
                                     "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
