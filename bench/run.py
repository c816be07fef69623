"""Time to a correct verdict for hopfrob's CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload catalog --seed 1 --seconds 15 --trace 0

One process runs one workload.  Set-up imports hopfrob from ``src/``, builds
the catalog entries the workload needs and writes its input files (seeded by
``--seed``); it is repeated ``SETUP_REPEATS`` times.  Then the workload's
fixed job list runs through ``hopfrob.cli.main(argv)``, in-process, one job
after another (a closed loop with one client), with stdout and stderr
captured, in passes until ``--seconds`` have elapsed (at least one pass).
Each job's exit code is compared with its known answer.

Times are wall times scaled by the machine speed sampled while they ran
(``bench/speed.py``), so that they do not follow the speed of a shared
machine; the unscaled medians are printed too and kept in the record.

``--trace 0`` prints the end-to-end metrics: medians over passes of
``accept_s`` (jobs whose known answer is PASS) and ``reject_s`` (jobs on
corrupted inputs, known answer FAIL), the median ``setup_s`` and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics of ``bench/spans.py`` and ``trace.overhead_s``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` counts jobs run, ``failed`` counts
wrong verdicts (exit code other than the known answer, or a traceback), so
``failed / attempted`` is the wrong-verdict share.  ``correct`` is false when
a job accepted an input known to be corrupt or crashed with a traceback: a
false PASS or a crash is a broken program, while a false FAIL is counted in
``failed``.  The full record (environment, seeded choices, every job's exit
code, time and stdout SHA-256, and the spans of a traced run) goes to
``bench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
from speed import SpeedProbe
from workloads import ACCEPT, REJECT, WORKLOADS, build

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SRC = ROOT / "src"

SETUP_REPEATS = 15

END_TO_END = {
    "accept_s": "s",
    "reject_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.verify_s": "s",
    "cli.frobenius_s": "s",
    "cli.separable_s": "s",
    "cli.double_s": "s",
    "cli.dual_s": "s",
    "cli.subcheck_s": "s",
    "cli.dedekind_s": "s",
    "cli.self_s": "s",
    "hopffile.parse_s": "s",
    "hopffile.emit_s": "s",
    "hopffile.parse_bytes": "bytes",
    "algebra.verify_s": "s",
    "algebra.multiply_calls": "count",
    "hopfcore.verify_full_s": "s",
    "hopfcore.verify_certified_s": "s",
    "hopfcore.verify_calls": "count",
    "hopfcore.integral_space_s": "s",
    "hopfcore.dual_s": "s",
    "hopfcore.dual_calls": "count",
    "linalg.kernel_s": "s",
    "linalg.kernel_calls": "count",
    "linalg.solve_s": "s",
    "linalg.solve_calls": "count",
    "double.build_s": "s",
    "double.fh_check_s": "s",
    "frobenius.system_s": "s",
    "frobenius.system_calls": "count",
    "frobenius.system_base": "count",
    "frobenius.integral_data_s": "s",
    "frobenius.integral_data_calls": "count",
    "frobenius.dual_basis_s": "s",
    "frobenius.closed_form_s": "s",
    "frobenius.orders_s": "s",
    "frobenius.radford_s": "s",
    "frobenius.dual_check_s": "s",
    "separability.decide_s": "s",
    "separability.kanzaki_s": "s",
    "separability.eg_s": "s",
    "subext.embedding_s": "s",
    "subext.embedding_calls": "count",
    "subext.beta_s": "s",
    "subext.structure_s": "s",
    "subext.induction_s": "s",
    "dedekind.transport_s": "s",
    "trace.overhead_s": "s",
}


def _purge_hopfrob() -> None:
    for name in [m for m in sys.modules if m == "hopfrob" or m.startswith("hopfrob.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, work: Path, probe: SpeedProbe, small: bool = False):
    """One timed set-up: fresh import, catalog construction, input files.
    Returns ({seconds, probe}, hopfrob.cli module, Workload)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    n0 = len(probe.samples)
    t0 = time.perf_counter()
    _purge_hopfrob()
    cli = importlib.import_module("hopfrob.cli")
    os.chdir(work)
    wl = build(workload, seed, small=small)
    timing = {"seconds": time.perf_counter() - t0, "probe": (n0, len(probe.samples))}
    return timing, cli, wl


def run_job(cli, job, probe: SpeedProbe, tracer=None, job_id=None) -> dict:
    """Run one CLI job in-process; returns its exit code, seconds, the
    speed samples taken meanwhile and the digest of its stdout."""
    out, err = io.StringIO(), io.StringIO()
    tb = None
    if tracer is not None:
        tracer.job = job_id
        span = tracer.begin("cli." + job.command.removesuffix("-demo"))
    n0 = len(probe.samples)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:  # any traceback is a wrong verdict; the run goes on
        code = None
        tb = traceback.format_exc()
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
    return {
        "code": code,
        "seconds": seconds,
        "probe": (n0, len(probe.samples)),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "traceback": tb,
    }


def run_pass(cli, jobs, probe, tracer=None) -> list:
    return [run_job(cli, job, probe, tracer, n) for n, job in enumerate(jobs)]


def run_passes(cli, jobs, probe, seconds: float) -> list:
    """Whole passes until ``seconds`` have elapsed, at least one."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(cli, jobs, probe))
    return passes


def run_traced(cli, jobs, probe, seconds: float):
    """Untraced and traced passes, alternating, until ``seconds`` have
    elapsed (at least one of each).  Returns (untraced passes, traced
    passes, per-layer numbers and spans of each traced pass)."""
    tracer = spans.Tracer()
    untraced, traced, layers = [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        untraced.append(run_pass(cli, jobs, probe))
        restore = spans.install(tracer)
        try:
            traced.append(run_pass(cli, jobs, probe, tracer))
        finally:
            restore()
        recorded, counts = tracer.take()
        layers.append((spans.layer_metrics(recorded, counts), recorded))
    return untraced, traced, layers


def pass_seconds(jobs, results, probe, kinds=(ACCEPT, REJECT), scaled=True) -> float:
    """Time of the jobs of the given kinds in one pass, scaled by the speed
    sampled while they ran unless ``scaled`` is false."""
    picked = [r for job, r in zip(jobs, results) if job.kind in kinds]
    wall = sum(r["seconds"] for r in picked)
    return wall * probe.factor([r["probe"] for r in picked]) if scaled else wall


def verdicts(jobs, passes) -> dict:
    """Known-answer accounting over every job run."""
    wrong, unsound, crashed = [], 0, 0
    for results in passes:
        for job, r in zip(jobs, results):
            if r["code"] != job.expected:
                wrong.append({"argv": list(job.argv), "expected": job.expected, "got": r["code"]})
            if r["code"] is None:
                crashed += 1
            elif r["code"] == 0 and job.expected != 0:
                unsound += 1
    return {
        "attempted": len(jobs) * len(passes),
        "failed": len(wrong),
        "wrong": wrong,
        "correct": unsound == 0 and crashed == 0,
    }


def _git_commit():
    """HEAD of the repository around the checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def end_to_end(jobs, passes, setups, probe) -> tuple[dict, dict]:
    """The end-to-end metrics, and the same times unscaled."""
    metrics, wall = {}, {}
    for name, kind in (("accept_s", ACCEPT), ("reject_s", REJECT)):
        metrics[name] = statistics.median(pass_seconds(jobs, r, probe, (kind,)) for r in passes)
        wall[name] = statistics.median(pass_seconds(jobs, r, probe, (kind,), scaled=False) for r in passes)
    metrics["setup_s"] = statistics.median(t["seconds"] * probe.factor([t["probe"]]) for t in setups)
    wall["setup_s"] = statistics.median(t["seconds"] for t in setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, wall


def per_layer(jobs, untraced, traced, layers, probe) -> tuple[dict, dict]:
    """The per-layer metrics, times scaled by each traced pass's speed, and
    the untraced and traced pass times unscaled."""
    scaled = []
    for results, (lm, _) in zip(traced, layers):
        if abs(lm["trace.self_sum_s"] - lm["trace.total_s"]) > 1e-9 * len(jobs) + 1e-6 * lm["trace.total_s"]:
            raise AssertionError("span self times do not add up to the traced total")
        f = probe.factor([r["probe"] for r in results])
        scaled.append({k: v * f if PER_LAYER.get(k) == "s" else v for k, v in lm.items()})
    metrics = {name: statistics.median(lm.get(name, 0) for lm in scaled) for name in PER_LAYER}
    metrics["frobenius.system_base"] = sum(job.command in ("frobenius", "separable") for job in jobs)
    metrics["trace.overhead_s"] = statistics.median(
        pass_seconds(jobs, t, probe) - pass_seconds(jobs, u, probe) for u, t in zip(untraced, traced)
    )
    wall = {
        "untraced_s": statistics.median(pass_seconds(jobs, r, probe, scaled=False) for r in untraced),
        "traced_s": statistics.median(pass_seconds(jobs, r, probe, scaled=False) for r in traced),
    }
    return metrics, wall


def measure(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Set up, run, and return (result line, record)."""
    env = environment(seed)  # also imports numpy and scipy before any timing
    import scipy.sparse  # noqa: F401  (loaded lazily by hopfrob's mod-p kernels)

    work = OUT / f"work-{workload}-{os.getpid()}"
    cwd = os.getcwd()
    try:
        with SpeedProbe() as probe:
            setups = []
            for _ in range(SETUP_REPEATS):
                os.chdir(cwd)
                timing, cli, wl = setup(workload, seed, work, probe, small)
                setups.append(timing)
            jobs = wl.jobs
            if trace:
                untraced, traced, layers = run_traced(cli, jobs, probe, seconds)
                passes = untraced + traced
            else:
                passes = run_passes(cli, jobs, probe, seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics, wall = per_layer(jobs, untraced, traced, layers, probe)
        units = PER_LAYER
    else:
        metrics, wall = end_to_end(jobs, passes, setups, probe)
        units = END_TO_END
    acct = verdicts(jobs, passes)
    result = {
        "correct": acct["correct"],
        "attempted": acct["attempted"],
        "failed": acct["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload,
        "env": env,
        "choices": wl.choices,
        "trace": int(trace),
        "passes": len(passes),
        "setups": setups,
        "speed_factor": probe.factor([(0, len(probe.samples))]),
        "speed_samples": probe.samples,
        "wall": wall,
        "accounting": acct,
        "jobs": [
            {
                "argv": list(job.argv),
                "expected": job.expected,
                "kind": job.kind,
                "why": job.why,
                "runs": [[p[n]["code"], p[n]["seconds"], p[n]["stdout_sha256"], p[n]["probe"]] for p in passes],
                "tracebacks": sorted({p[n]["traceback"] for p in passes if p[n]["traceback"]}),
            }
            for n, job in enumerate(jobs)
        ],
        "result": result,
    }
    if trace:
        record["spans"] = [recorded for _, recorded in layers]
    return result, record


def _digest(record) -> str:
    h = hashlib.sha256()
    for job in record["jobs"]:
        h.update(job["runs"][0][2].encode())
    return h.hexdigest()


def print_result(result, record, path) -> None:
    """Every metric by name and unit, then the result line."""
    acct = record["accounting"]
    print(f"workload {record['workload']}  seed {record['env']['seed']}  passes {record['passes']}  record {path}")
    print(f"choices {json.dumps(record['choices'], sort_keys=True)}")
    share = acct["failed"] / acct["attempted"]
    print(f"wrong_verdict_share {share:.6f} ratio  ({acct['failed']} of {acct['attempted']} jobs)")
    for w in sorted({json.dumps(w) for w in acct["wrong"]}):
        print(f"  wrong verdict {w}")
    print(f"stdout digest {_digest(record)}")
    print(f"speed factor {record['speed_factor']:.4f} ({len(record['speed_samples'])} samples)")
    for name, value in record["wall"].items():
        print(f"unscaled {name} {value:.6f} s")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6f} {m['unit']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # stay on one CPU: the vCPUs of a small VM can run at different speeds
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "hopfrob" / "__init__.py").is_file():
        print(f"hopfrob sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    print_result(result, record, path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
