#!/usr/bin/env python3
"""Self-check of the benchmark's output; run from the repository root:

    python3 perfbench/selfcheck.py

It checks that:
  - every workload, at the tiny size, prints a result line with exactly
    the keys correct, attempted, failed and metrics, with correct true
    and failed 0 (fail_frac == 0);
  - with --trace 0 the metrics are exactly BENCHMARK.json's end_to_end
    metrics and with --trace 1 exactly its per_layer metrics, each with
    the unit BENCHMARK.json gives it;
  - the seed reaches the generated session specs: one seed always
    yields the same specs, and two seeds yield different ones.
Exits non-zero, listing the problems, if any check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args):
    p = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expect = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        specs = {}
        for seed in ("1", "1", "2"):
            code, out, err = run(["--workload", name, "--seed", seed, "--seconds", "10", "--specs"])
            if code != 0:
                problems.append(f"{name}: --specs exited {code}: {err.strip()}")
                break
            specs.setdefault(seed, []).append(out)
        else:
            if specs["1"][0] != specs["1"][1]:
                problems.append(f"{name}: seed 1 generated different specs on two calls")
            if specs["1"][0] == specs["2"][0]:
                problems.append(f"{name}: seeds 1 and 2 generated the same specs")

        for trace in (0, 1):
            code, out, err = run(["--workload", name, "--seed", "3", "--seconds", "1",
                                  "--trace", str(trace), "--size", "tiny"])
            where = f"{name} --trace {trace}"
            if code != 0:
                problems.append(f"{where}: exited {code}: {err.strip()[-500:]}")
                continue
            try:
                res = json.loads(out.strip().splitlines()[-1])
            except (IndexError, ValueError) as e:
                problems.append(f"{where}: last line is not JSON: {e}")
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(res)}")
                continue
            if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{where}: correct={res['correct']} failed={res['failed']} "
                                f"attempted={res['attempted']}: {err.strip()[-500:]}")
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            for k, unit in expect[trace].items():
                if k not in got:
                    problems.append(f"{where}: metric {k} missing")
                elif got[k] != unit:
                    problems.append(f"{where}: metric {k} unit {got[k]!r}, want {unit!r}")
            for k in got.keys() - expect[trace].keys():
                problems.append(f"{where}: metric {k} not in BENCHMARK.json")
            for k, v in res["metrics"].items():
                if not isinstance(v.get("value"), (int, float)) or isinstance(v.get("value"), bool):
                    problems.append(f"{where}: metric {k} value {v.get('value')!r} is not a number")
        print(f"{name}: checked", flush=True)

    for p in problems:
        print("PROBLEM:", p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
