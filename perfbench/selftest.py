#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny smoke size (about a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps its schema, that every workload prints a
result line of the right shape with every metric and unit (untraced and
traced) and passes its checks at the committed values, that a corrupted
committed value is counted as a failed operation, and that a directory
without the rkstab sources makes the run fail without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".perfbench_out", "selftest")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

problems: list[str] = []


def check(condition, message):
    if not condition:
        problems.append(message)
    return condition


def check_benchmark_json(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
          "run_seconds out of range")
    names = []
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"}, f"workload keys {w}")
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']}")
        names.append(w["name"])
    check(2 <= len(bench["workloads"]) <= 8, "workload count")
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"end_to_end keys {m}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
        names.append(m["name"])
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per_layer keys {m}")
        names.append(m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]), f"unit of {m['name']}")
        check(m["better"] in ("lower", "higher"), f"better of {m['name']}")
    check(all(NAME.match(n) for n in names), "a name breaks the naming rule")
    check(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s must be in seconds, lower, with the largest bound")


def run(workload, trace, expected=None, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "1",
           "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"]
    if expected:
        cmd += ["--expected", expected]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_result(workload, trace, result, wanted):
    tag = f"{workload} trace={trace}"
    if not check(isinstance(result, dict), f"{tag}: no result line"):
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{tag}: attempted")
    check(isinstance(result["failed"], int), f"{tag}: failed")
    check(result["correct"] is True and result["failed"] == 0,
          f"{tag}: failed {result['failed']} of {result['attempted']} at committed values")
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in wanted}, f"{tag}: metric names")
    for m in wanted:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"], f"{tag}: unit of {m['name']}")
        value = got.get("value")
        check(isinstance(value, (int, float)) and not isinstance(value, bool),
              f"{tag}: value of {m['name']}")
        if trace == 0:
            check(value and value > 0, f"{tag}: end-to-end {m['name']} is {value!r}")


def corrupt(expected_path, workload, out_path):
    """Copy the committed values with one float of the workload moved by 1e-6."""
    with open(expected_path) as handle:
        expected = json.load(handle)
    table = expected["smoke"][workload]
    key = next(k for k, v in sorted(table.items()) if isinstance(v, float) and v != 0.0)
    table[key] *= 1.0 + 1e-6
    with open(out_path, "w") as handle:
        json.dump(expected, handle)
    return key


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    check_benchmark_json(bench)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    workloads = [w["name"] for w in bench["workloads"]]

    for workload in workloads:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(workload, trace)
            if check(proc.returncode == 0, f"{workload} trace={trace}: exit "
                     f"{proc.returncode}: {proc.stderr[-300:]}"):
                check_result(workload, trace, last_json(proc), wanted)

        bad = os.path.join(SCRATCH, f"expected_{workload}.json")
        key = corrupt(os.path.join(HERE, "expected.json"), workload, bad)
        proc = run(workload, 0, expected=bad)
        result = last_json(proc) if proc.returncode == 0 else None
        check(result is not None and result["failed"] > 0 and result["correct"] is False,
              f"{workload}: corrupted {key} was not counted as a failure")

    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(workloads[0], 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "a checkout without src/rkstab must fail without a result")

    for problem in problems:
        print("selftest: FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
