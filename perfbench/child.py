"""One workload in one fresh process: set up, warm up, then the timed stream.

Run by ``run.py``; prints one JSON object as its last line.  Modes:

- ``run``: set up (import, generate and validate inputs, build hosts, run
  the warm-up pass), then replay whole passes of the stream until at least
  ``--seconds`` have been measured;
- ``trace``: set up, replay a fixed set of passes untraced, then the same
  work traced, and report the per-layer metrics.

The stream is a closed loop with one client in one thread: the next job
starts when the previous one returns.  A per-job deadline is enforced with
``SIGALRM`` on this thread, so no extra thread or process is started.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402  (imports catengine, so it counts as set-up)
from catengine import fincat, virtlim  # noqa: E402

# Leaves room for ONE lext/close, the slowest job that is not a known defect (2 to 3 s).
DEADLINE_S = 4
TRACE_PASSES = {"flat-census": 1, "completion-battery": 1, "universal-search": 2}
# The timed run never stops before this many passes, and peak memory is read
# right after them: a fixed amount of work, so a faster engine that fits more
# passes into the run is not charged for the extra growth of the module caches.
MIN_PASSES = {"flat-census": 1, "completion-battery": 1, "universal-search": 3}


class JobDeadline(BaseException):
    """Raised from the alarm handler; not an Exception, so engine code cannot swallow it."""


TRACER = None  # the active tracer in a traced run


def _on_alarm(signum, frame):
    if TRACER is not None and TRACER.busy:
        # never interrupt the tracer half-way through recording a span
        signal.setitimer(signal.ITIMER_REAL, 0.001)
        return
    raise JobDeadline()


def _call(job):
    signal.alarm(DEADLINE_S)
    try:
        return job.call(), None
    except JobDeadline:
        return None, ("failed", f"deadline of {DEADLINE_S} s exceeded")
    except wl.BOUND_ERRORS as exc:
        return None, ("bounded", f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # any other escape is a failed job, recorded with its type
        return None, ("failed", f"unexpected {type(exc).__name__}: {exc}")
    finally:
        signal.alarm(0)


# The cores the jobs take turns on.  On a shared host each core has slow
# spells of its own, lasting seconds to minutes; with the jobs spread over
# n cores, a slow spell on one of them slows only 1/n of the jobs.
CORES = sorted(os.sched_getaffinity(0))
_turn = itertools.count()


def run_job(job, state: dict) -> dict:
    os.sched_setaffinity(0, {CORES[next(_turn) % len(CORES)]})
    t0 = time.perf_counter()
    raw, ended = _call(job)
    latency = time.perf_counter() - t0
    if ended is not None:
        outcome, cause = ended
        payload = cause.encode()
    else:
        payload, problems, bounded = job.check(raw, state)
        if bounded:
            outcome, cause = "bounded", "exit 3"
        elif problems:
            outcome, cause = "failed", "; ".join(problems)
        else:
            outcome, cause = "decided", ""
    return {
        "id": job.id,
        "kind": job.kind,
        "outcome": outcome,
        "cause": cause,
        "known_defect": outcome == "failed" and job.id in wl.KNOWN_DEFECTS,
        "latency_s": latency,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }


def run_passes(workload, passes) -> list[dict]:
    records = []
    for k in passes:
        state: dict = {}
        for job in workload.pass_jobs(k):
            records.append(run_job(job, state))
    return records


def cache_sizes() -> dict:
    return {
        "fincat._LIMIT_CACHE": len(fincat._LIMIT_CACHE),
        "fincat._FINSET_CACHE": len(fincat._FINSET_CACHE),
        "virtlim._VL_CACHE": len(virtlim._VL_CACHE),
        "virtlim._DAG_SHAPES": len(virtlim._DAG_SHAPES),
    }


def traced_metrics(workload, seed: int, passes, untraced: list[dict]) -> tuple[dict, list[dict], dict]:
    global TRACER
    tracer = TRACER = tracing.Tracer()
    counts = tracer.counts

    def cache_growth(cache, key):
        def before(args):
            return len(cache)

        def after(seen, args, result):
            counts[key] += len(cache) > seen

        return before, after

    def add(key, measure):
        def after(seen, args, result):
            counts[key] += measure(result)

        return None, after

    def swept(seen, args, result):
        parent = tracer.stack[-1]
        if parent < 0 or tracer.names[tracer.name[parent]] != "virtlim:swept_diagrams":
            counts["diagrams_swept"] += len(result)

    def materialized_before(args):
        return "category" in args[0]._cache

    def materialized_after(seen, args, result):
        if not seen:
            counts["morphisms_materialized"] += result.n_morphisms

    def built(seen, args, result):
        counts["objects_built"] += len(result.objects)
        counts["bound_events"] += len(result.bound_events)

    observers = {
        "fincat:limit_in_category": cache_growth(fincat._LIMIT_CACHE, "limit_cache_misses"),
        "virtlim:virtual_limit": cache_growth(virtlim._VL_CACHE, "vl_cache_misses"),
        "presheaf:find_iso": add("isos_found", lambda r: r is not None),
        "presheaf:hom_set": add("nats_enumerated", len),
        "localize:sketch_models": add("sketch_models", len),
        "virtlim:generating_diagrams": (None, swept),
        "virtlim:swept_diagrams": (None, swept),
        "completions:ConcreteCompletion.as_category": (materialized_before, materialized_after),
    }
    for name in ("close", "direct_regular", "direct_pretopos", "fam_f"):
        observers[f"completions:{name}"] = (None, built)

    records = []
    tracer.install(observers)
    t0 = time.perf_counter()
    try:
        for k in passes:
            state: dict = {}
            for job in workload.pass_jobs(k, twin=True):
                tracer.start_job(len(records))
                records.append(run_job(job, state))
    finally:
        tracer.uninstall()
        TRACER = None
    traced_wall = time.perf_counter() - t0
    tracing.assert_untraced()

    selfs = tracer.self_times()
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    def total(names):
        return sum(selfs.get(n, 0.0) for n in names)

    lim_calls, vl_calls = c["fincat:limit_in_category"], c["virtlim:virtual_limit"]
    routes = [n for n in tracing.SPANS["flatness"] if n in tracing.SELF_TIME["flatness.self_s"]]
    untraced_s = sum(r["latency_s"] for r in untraced)
    traced_s = sum(r["latency_s"] for r in records)
    metrics = {name: (total(names), "s") for name, names in tracing.SELF_TIME.items()}
    metrics.update({
        "fincat.check_calls": (c["fincat:FiniteCategory.check"], "count"),
        "fincat.functors_enumerated": (c["fincat:enumerate_functors#items"], "count"),
        "fincat.limit_cache_hit_ratio": (ratio(lim_calls - c["limit_cache_misses"], lim_calls), "ratio"),
        "presheaf.find_iso_calls": (c["presheaf:find_iso"], "count"),
        "presheaf.find_iso_found_ratio": (ratio(c["isos_found"], c["presheaf:find_iso"]), "ratio"),
        "presheaf.hom_set_calls": (c["presheaf:hom_set"], "count"),
        "presheaf.nats_enumerated": (c["nats_enumerated"], "count"),
        "presheaf.nat_key_calls": (c["presheaf:NatTransformation.key"], "count"),
        "virtlim.virtual_limit_calls": (vl_calls, "count"),
        "virtlim.vl_cache_hit_ratio": (ratio(vl_calls - c["vl_cache_misses"], vl_calls), "ratio"),
        "virtlim.vl_cache_entries": (len(virtlim._VL_CACHE), "count"),
        "virtlim.diagrams_swept": (c["diagrams_swept"], "count"),
        "flatness.verdicts": (sum(c[n] for n in routes), "count"),
        "flatness.preserves_limit_calls": (c["flatness:preserves_limit"], "count"),
        "flatness.concrete_conversions": (c["flatness:ConcreteFunctor.from_set_functor"], "count"),
        "completions.objects_built": (c["objects_built"], "count"),
        "completions.bound_events": (c["bound_events"], "count"),
        "completions.morphisms_materialized": (c["morphisms_materialized"], "count"),
        "localize.sketch_models": (c["sketch_models"], "count"),
        "trace.overhead_share": (ratio(traced_s - untraced_s, untraced_s), "share"),
    })
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.tsv.gz"
    extra = {
        "spans": tracer.write(spans_path),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "traced_wall_s": traced_wall,
        "wrapped_names": sorted(tracing.originals()),
    }
    return metrics, records, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("run", "trace"), required=True)
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent started us")
    args = p.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.mode}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        warm = [run_job(job, {}) for job in workload.warmup()]
        setup_s = time.monotonic() - args.spawned
        result = {"setup_s": setup_s, "warmup_jobs": len(warm), "inputs": len(workload.inputs)}
        tracing.assert_untraced()
        if args.mode == "run":
            records, k, t0 = [], 0, time.perf_counter()
            excluded = 0.0
            # Peak memory leaves out the growth of the first job the deadline
            # cuts off, and of everything after it: how far such a job gets
            # depends on the machine's speed (the runaway PAR pret battery,
            # the last job of its pass, took 33 MB in most runs and 38 MB in
            # runs on a fast machine).
            cut_rss = None
            while True:
                g0 = time.perf_counter()
                jobs = workload.pass_jobs(k)  # lazily generated passes are not timed
                excluded += time.perf_counter() - g0
                state: dict = {}
                for job in jobs:
                    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    records.append(run_job(job, state))
                    if cut_rss is None and records[-1]["cause"].startswith("deadline"):
                        cut_rss = rss
                k += 1
                if k == MIN_PASSES[args.workload]:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    if cut_rss is not None:
                        peak_rss_mb = cut_rss
                if k >= MIN_PASSES[args.workload] and time.perf_counter() - t0 - excluded >= args.seconds:
                    break
            result.update({
                "passes": k,
                "timed_s": time.perf_counter() - t0 - excluded,
                "peak_rss_mb": peak_rss_mb,
                "peak_rss_end_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "caches": cache_sizes(),
                "jobs": records,
            })
        elif args.mode == "trace":
            passes = range(TRACE_PASSES[args.workload])
            for k in passes:
                workload.pass_jobs(k, twin=True)  # generate the twins before timing
            untraced = run_passes(workload, passes)
            metrics, traced, extra = traced_metrics(workload, args.seed, passes, untraced)
            records = untraced + traced
            result.update(extra)
            result.update({
                "layer_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "caches": cache_sizes(),
                "jobs": records,
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
