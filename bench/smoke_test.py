"""Smoke test of the benchmark itself: every workload once, at a tiny size.

    python3 bench/smoke_test.py          (or: python3 -m pytest bench/smoke_test.py)

Run from the repository root.  Checks, for --trace 0 and --trace 1, that the
last line carries every metric BENCHMARK.json names, each with its unit, that
the output checks ran on every attempted op and passed, and that the traced
near_confluent run made its accuracy scan.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_every_workload_prints_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            info, res = run(w["name"], trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["attempted"] >= 1 and info["checked"] == res["attempted"]
            assert res["correct"] and res["failed"] == 0, (w["name"], trace, res)
            if w["name"] == "near_confluent" and trace:
                assert sum(info["accuracy_scan"].values()) == 432, info
            assert set(res["metrics"]) == {m["name"] for m in names}
            for m in names:
                got = res["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (w["name"], m["name"], got)
                assert isinstance(got["value"], float), (w["name"], m["name"], got)
            print(f"ok {w['name']} trace={trace} attempted={res['attempted']} "
                  f"failed={res['failed']} correct={res['correct']}")


def test_refuses_without_sources(tmp_path):
    for name in ("BENCHMARK.json", "bench"):
        src = os.path.join(ROOT, name)
        dst = tmp_path / name
        if os.path.isdir(src):
            dst.mkdir()
            for f in os.listdir(src):
                if f.endswith(".py") or f.endswith(".md"):
                    (dst / f).write_bytes(open(os.path.join(src, f), "rb").read())
        else:
            dst.write_bytes(open(src, "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "strain_update", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0 and not proc.stdout.strip()


if __name__ == "__main__":
    import pathlib
    import tempfile

    test_every_workload_prints_every_metric()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        test_refuses_without_sources(pathlib.Path(tmp))
    print("smoke test passed")
