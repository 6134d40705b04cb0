"""Steadiness check: run each workload N times, with seeds 1..N, and
print every end-to-end metric's median, quartiles and spread.

    python3 perfbench/steady.py [--runs 10] [--workloads serve,sweep,reduce]

Run it from the repository root.  Each run lasts ``run_seconds`` of
``BENCHMARK.json``, as the benchmark's runs always do.  The spread is
(Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; each metric's bound from
``BENCHMARK.json`` is printed beside it, and a spread above a third of
the bound is flagged.  Raw wall-clock figures from each run's
detail line are summarized the same way, which shows what the host-speed
normalization removes.  The runs are sequential; the exit code is 1 if
any run failed or reported an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from pathlib import Path

RAW_OF = {"setup_s": "raw_setup_s", "throughput_ops": "raw_throughput_ops",
          "latency_p50_ms": "raw_latency_p50_ms",
          "latency_p90_ms": "raw_latency_p90_ms"}


def quartiles(values: list) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:"
                           f"\n{done.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def main(argv=None) -> int:
    config = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in config["workloads"]))
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    healthy = True
    print(f"{'workload':8} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'raw spread':>10}")
    for workload in args.workloads.split(","):
        values: dict = {}
        raw: dict = {}
        attempted = failed = 0
        for seed in range(1, args.runs + 1):
            result, detail = one_run(workload, seed, config["run_seconds"])
            attempted += result["attempted"]
            failed += result["failed"]
            healthy &= result["correct"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
                if name in RAW_OF:
                    raw.setdefault(name, []).append(detail[RAW_OF[name]])
        for name, series in values.items():
            q1, median, q3 = quartiles(series)
            spread = (q3 - q1) / median
            bound = bounds.get(name, float("nan"))
            raw_spread = ""
            if name in raw:
                r1, rmed, r3 = quartiles(raw[name])
                raw_spread = f"{(r3 - r1) / rmed:10.3f}"
            flag = "  !" if spread > bound / 3 else ""
            print(f"{workload:8} {name:16} {median:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {spread:7.3f} {bound:6.2f} {raw_spread:>10}"
                  f"{flag}")
        print(f"{workload:8} ops attempted {attempted}, failed {failed}")
        healthy &= failed == 0
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
