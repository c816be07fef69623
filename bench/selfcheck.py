"""Seconds-long self-check of the benchmark harness.

    python3 bench/selfcheck.py

Runs each workload's job list once, untraced and traced, on the smallest
objects that still run every job, and checks that:
- the printed metric names and units are exactly those of BENCHMARK.json;
- ``attempted`` is jobs times passes, ``failed`` counts every exit code
  that differs from the known answer, and a deliberately wrong expected
  code is counted as wrong;
- ``correct`` turns false on a PASS for a corrupted input or a traceback;
- every traced job is the root of a span tree whose self times add up to
  the traced total;
- call counts and parsed bytes repeat exactly on a second traced run.
Exits 0 when all hold, 1 with the first failure otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run
import spans
from workloads import WORKLOADS, Job

COUNTS = ("_calls", "parse_bytes")


def check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def printed_metrics(result, record) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_result(result, record, "-")
    lines = out.getvalue().splitlines()
    line = json.loads(lines[-1])
    check(set(line) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(line)}")
    for name, m in line["metrics"].items():
        check(f"{name} {m['value']:.6f} {m['unit']}" in lines, f"{name} is not printed with its unit")
    return {name: m["unit"] for name, m in line["metrics"].items()}


def check_accounting(name: str, result, record) -> None:
    jobs = [Job(tuple(j["argv"]), j["expected"], j["kind"], j["why"]) for j in record["jobs"]]
    passes = [[{"code": j["runs"][p][0]} for j in record["jobs"]] for p in range(record["passes"])]
    wrong = sum(r["code"] != job.expected for ps in passes for job, r in zip(jobs, ps))
    check(result["attempted"] == len(jobs) * record["passes"], f"{name}: attempted")
    check(result["failed"] == wrong, f"{name}: failed counts wrong verdicts")
    # flip one known answer: every pass must count it as one more wrong verdict
    flipped = list(jobs)
    flipped[0] = dataclasses.replace(jobs[0], expected=1 - jobs[0].expected)
    again = run.verdicts(flipped, passes)
    check(again["failed"] == wrong + record["passes"], f"{name}: a wrong expected code is not counted")
    # a PASS on a corrupted input, or a traceback, makes the run incorrect
    for n, job in enumerate(jobs):
        for code in ([0] if job.expected else []) + [None]:
            broken = [dict(r) for r in passes[0]]
            broken[n]["code"] = code
            check(not run.verdicts(jobs, [broken])["correct"], f"{name}: exit {code} on {job.argv} is not flagged")


def check_spans(name: str, record) -> None:
    njobs = len(record["jobs"])
    for recorded in record["spans"]:
        roots = [s for s in recorded if s[3] < 0]
        check(sorted(s[4] for s in roots) == list(range(njobs)), f"{name}: a job has no root span")
        check(all(recorded[s[3]][4] == s[4] for s in recorded if s[3] >= 0), f"{name}: span outside its job")
        total = sum(s[2] - s[1] for s in roots)
        check(abs(sum(spans.self_times(recorded)) - total) < 1e-6, f"{name}: self times do not add up")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in declared["workloads"]] == list(WORKLOADS), "workload names")
    want = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    sys.path.insert(0, str(run.SRC))
    for name in WORKLOADS:
        for trace in (0, 1):
            result, record = run.measure(name, 0, 0, bool(trace), small=True)
            check(printed_metrics(result, record) == want[trace], f"{name}: metric names or units")
            check_accounting(name, result, record)
            if trace:
                check_spans(name, record)
                second, _ = run.measure(name, 0, 0, True, small=True)
                for metric, m in result["metrics"].items():
                    if metric.endswith(COUNTS):
                        check(second["metrics"][metric] == m, f"{name}: {metric} does not repeat")
            print(f"ok {name} trace {trace}: {result['attempted']} jobs, {result['failed']} wrong")
    print("self-check passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        sys.exit(1)
