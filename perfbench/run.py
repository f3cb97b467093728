"""catengine benchmark: three checked job streams, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in fresh child processes (``child.py``), one at a time,
so module caches start empty and peak memory is per workload.  With
``--trace 0`` three processes each set up and then run a third of the
timed stream; set-up time and peak memory are the medians over the three,
and the job metrics pool their jobs, so one run samples the machine's speed
at three moments.  Job latency quantiles are taken over the jobs of a pass,
each job's latency being the mean of its runs (see ``summarize``).  With
``--trace 1`` one process replays a fixed set of passes untraced and then
traced, and the per-layer metrics are printed.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full per-job record (outcome, cause, latency, sha256 of
the job's report) is written under ``.perfbench_out/`` so that two runs or
two commits can be diffed job by job.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flat-census", "completion-battery", "universal-search")
CHILDREN = 3
TAIL_BEYOND = 10
BUDGET_S = 175  # the whole run, all child processes included
E2E_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
    "decided_share": "share", "peak_rss_mb": "MB",
}


def spawn(mode: str, args, seconds: float, deadline: float, hash_seed: int) -> dict:
    """Run one child process.  Set and dict iteration orders, and with them
    the order in which the engine's searches try candidates, follow the
    string hash seed; each child gets a fixed one, so every run averages the
    same few orders instead of fresh random ones."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--mode", mode, "--spawned", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"child ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(records: list[dict]) -> dict:
    """Outcome counts and the latency quantiles.  A job's latency is the mean
    over its runs in the timed stream (one per pass), which spreads every job
    over the whole run; the quantiles are taken over the jobs."""
    n = len(records)
    by = {k: sum(r["outcome"] == k for r in records) for k in ("decided", "bounded", "failed")}
    runs: dict[str, list[float]] = {}
    for r in records:
        runs.setdefault(r["kind"], []).append(r["latency_s"])
    means = {kind: statistics.fmean(xs) for kind, xs in runs.items()}
    latencies = sorted(means.values())
    # the tail is the highest decile with at least TAIL_BEYOND jobs beyond it
    pct = 10 * math.floor(10 * (1 - TAIL_BEYOND / len(latencies)))
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1] if pct >= 1 else latencies[-1]
    return {
        "attempted": n,
        "decided": by["decided"],
        "bounded": by["bounded"],
        "failed": by["failed"],
        "known_defect_failures": sum(r["known_defect"] for r in records),
        "unexpected_failures": sum(r["outcome"] == "failed" and not r["known_defect"] for r in records),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail,
        "distinct_jobs": len(latencies),
        "tail_percentile": pct,
        "tail_jobs_beyond": sum(x > tail for x in latencies),
        "tail_samples_beyond": sum(len(runs[kind]) for kind, x in means.items() if x > tail),
        "decided_share": by["decided"] / n,
        "bounded_share": by["bounded"] / n,
        "failed_share": by["failed"] / n,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "catengine" / "__init__.py").is_file():
        sys.stderr.write(f"no catengine sources under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        res = spawn("trace", args, args.seconds, deadline, hash_seed=1)
        res.update(summarize(res["jobs"]))
        metrics = res["layer_metrics"]
    else:
        children = [spawn("run", args, args.seconds / CHILDREN, deadline, hash_seed=i + 1) for i in range(CHILDREN)]
        res = summarize([r for c in children for r in c["jobs"]])
        res.update({
            "children": [{k: v for k, v in c.items() if k != "jobs"} for c in children],
            "jobs": [r for c in children for r in c["jobs"]],
            "caches": children[-1]["caches"],
            "passes": sum(c["passes"] for c in children),
            "timed_s": sum(c["timed_s"] for c in children),
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
            "peak_rss_end_mb": max(c["peak_rss_end_mb"] for c in children),
        })
        res["jobs_per_s"] = res["attempted"] / res["timed_s"]
        metrics = {k: {"value": res[k], "unit": u} for k, u in E2E_UNITS.items()}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    res["metrics"] = metrics
    out_path.write_text(json.dumps(res, sort_keys=True, indent=1) + "\n")

    n = res["attempted"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {n} jobs "
          f"({res['decided']} decided, {res['bounded']} bounded, {res['failed']} failed, "
          f"of which {res['known_defect_failures']} known defects)")
    if not args.trace:
        print(f"  {'setup_s':14s} {res['setup_s']:.4f} s  (median of {CHILDREN} set-ups: "
              + ", ".join(f"{c['setup_s']:.3f}" for c in res["children"]) + ")")
        print(f"  {'jobs_per_s':14s} {res['jobs_per_s']:.4f} 1/s  ({n} jobs in {res['passes']} passes over {res['timed_s']:.2f} s, {CHILDREN} processes)")
        per_job = f"over {res['distinct_jobs']} jobs, each the mean of its runs; n={n} runs"
        print(f"  {'job_p50_s':14s} {res['job_p50_s']:.5f} s  (median {per_job})")
        print(f"  {'job_tail_s':14s} {res['job_tail_s']:.5f} s  (p{res['tail_percentile']} {per_job}; {res['tail_jobs_beyond']} jobs "
              f"with {res['tail_samples_beyond']} runs beyond)")
        print(f"  {'decided_share':14s} {res['decided_share']:.4f}  (n={n})")
        print(f"  {'failed_share':14s} {res['failed_share']:.4f}  (n={n}; known defects included)")
        print(f"  {'peak_rss_mb':14s} {res['peak_rss_mb']:.2f} MB  (median ru_maxrss after set-up and the first timed passes; {res['peak_rss_end_mb']:.2f} MB at most at the end)")
    else:
        for k, m in sorted(metrics.items()):
            print(f"  {k:36s} {m['value']:.6g} {m['unit']}")
        print(f"  spans: {res['spans']} in {res['spans_file']}")
    print(f"  module caches at the end: {res['caches']}")
    failed: dict[str, list] = {}
    for r in res["jobs"]:
        if r["outcome"] == "failed":
            failed.setdefault(r["id"], []).append(r)
    for job_id, rs in failed.items():
        tag = "known defect" if rs[0]["known_defect"] else "UNEXPECTED"
        print(f"  failed ({tag}, {len(rs)}x): {job_id}: {rs[0]['cause'][:160]}")
    print(f"  per-job record: {out_path.relative_to(ROOT)}")
    unexpected = res["unexpected_failures"]
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": n,
        "failed": unexpected,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
