"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload wlr_path --seed 42 --seconds 20 --trace 0

Set-up runs the corpus writer (corpus.py) in child processes, then the
workload's chain repeats in this process for about ``--seconds``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it holds provenance and work sizes.  Results and spans are also written
under ``.bench_out/`` in the checkout.  The exit code is 0 only when every
correctness gate passed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import TARGETS, layer_unit, traced_metrics
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FEATURE_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description="elorantd benchmark")
    p.add_argument("--workload", required=True, help="wlr_path | ingest_1hz | lasso_sweep")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the benchmark's own tests")
    p.add_argument("--perturb-reference", action="store_true",
                   help="corrupt one reference value (negative test of the gates)")
    return p.parse_args(argv)


# -- set-up ---------------------------------------------------------------------

def run_setup(args, plan, work: Path) -> tuple[Path, Path, list[dict]]:
    """Write the corpus plan.setup_repeats times in child processes.

    The first corpus is kept for the chain; the others only time set-up.
    """
    infos = []
    keep = (work / "corpus", work / "refs.npz")
    for k in range(plan.setup_repeats):
        out, refs = keep if k == 0 else (work / f"setup{k}", work / f"setup{k}.npz")
        cmd = [sys.executable, str(HERE / "corpus.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size,
               "--out", str(out), "--refs", str(refs)]
        if args.perturb_reference:
            cmd.append("--perturb-reference")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr[-2000:]}")
        infos.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if k:
            shutil.rmtree(out, ignore_errors=True)
            refs.unlink(missing_ok=True)
    return keep[0], keep[1], infos


# -- provenance -----------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info(np) -> tuple[str, str]:
    name = "unknown"
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass
    threads = "unknown"
    try:
        import ctypes
        import glob

        libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = str(fn())
                    break
            if threads != "unknown":
                break
    except OSError:
        pass
    return name, threads


def provenance(args, np) -> dict:
    blas, threads = blas_info(np)
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- metrics --------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return float(ordered[rank - 1])


def end_to_end(reps, infos, features) -> dict:
    rows = infos[0]["td_rows"]
    return {
        "setup_s": (median([i["total_s"] for i in infos]), "s"),
        "wall_s": (median([r.wall_s for r in reps]), "s"),
        "features_s": (median(features), "s"),
        "ingest_rows_per_s": (median([rows / f for f in features if f]), "rows/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


WORKLOAD_VALUES = {
    "wlr_train_s": "s", "grnn_train_s": "s", "artifact_mb": "MB",
    "wlr_rmse_ns": "ns", "grnn_rmse_ns": "ns", "sweep_best_rmse_ns": "ns",
    "reload_pred_rel_diff": "ratio",
}


def per_layer(reps, traced, infos, layer_rows, attempted, failed) -> dict:
    out = {}
    for key, unit in WORKLOAD_VALUES.items():
        vals = [r.values[key] for r in reps if key in r.values]
        out[key] = (median(vals), unit)
    lat = [x * 1e3 for r in reps for x in r.latencies_s]
    out["predict_p50_ms"] = (percentile(lat, 50), "ms")
    out["predict_p90_ms"] = (percentile(lat, 90), "ms")
    out["predict_requests"] = (float(len(lat)), "count")
    out["error_rate"] = (failed / attempted, "ratio")
    out["quality.targets_missed"] = (
        float(sum(not ok for r in reps + traced for ok in r.quality.values())), "count")
    out["synth.generate_s"] = (median([i["generate_s"] for i in infos]), "s")
    out["synth.write_corpus_s"] = (median([i["write_corpus_s"] for i in infos]), "s")
    if not layer_rows:  # the run failed before its traced pass
        layer_rows = [traced_metrics(Tracer(), 1.0)]
    for key in layer_rows[0]:
        out[key] = (median([row[key] for row in layer_rows]), layer_unit(key))
    untraced = median([r.wall_s for r in reps])
    traced_wall = median([r.wall_s for r in traced]) if traced else 0.0
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.overhead_s"] = (traced_wall - untraced, "s")
    out["trace.coverage_flag"] = (
        1.0 if out["trace.unattributed_share"][0] > 0.1 else 0.0, "count")
    work = work_sizes(reps, infos)
    # the other work sizes are already layer counters (ingest.td_rows, ...)
    for key in ("t_train", "t_test", "l", "n", "weather_rows"):
        out[f"work.{key}"] = (float(work[key]), "count")
    return out


WORK_KEYS = ("t_train", "t_test", "l", "n", "td_rows", "weather_rows",
             "lasso_cols", "cd_sweeps", "wlr_iterations")


def work_sizes(reps, infos) -> dict:
    """Work done by one pass of the chain; 0 where the workload does none."""
    work = {key: 0 for key in WORK_KEYS}
    work.update(reps[0].work)
    work["td_rows"] = infos[0]["td_rows"]
    work["weather_rows"] = infos[0]["weather_rows"]
    return work


# -- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    # on SIGTERM unwind normally, so set-up children are killed and waited for
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "elorantd" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import chains
    from corpus import WORKLOADS, plan_for

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    plan = plan_for(args.workload, args.size)
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        corpus_dir, refs, infos = run_setup(args, plan, work)
        ctx = chains.Context(plan, corpus_dir, refs, work)
        if args.workload == "lasso_sweep":
            chains.write_sweep_config(ctx)
        chain = chains.CHAINS[args.workload]

        reps, traced, layer_rows, spans_out = [], [], [], []
        tracer = Tracer()
        start = time.perf_counter()
        while True:
            # first pass always untraced: it is the overhead baseline
            trace_this = bool(args.trace) and bool(reps)
            rep = chains.Rep()
            gc.collect()
            if trace_this:
                tracer.begin_run(f"{args.workload}-{args.seed}-{len(traced)}")
                tracer.install(TARGETS)
            try:
                chain(ctx, rep, tracer if trace_this else None)
            except Exception as exc:  # a failed operation ends the run, reported below
                traceback.print_exc(file=sys.stderr)
                rep.gate("chain_completed", False, f"{type(exc).__name__}: {exc}")
            finally:
                if trace_this:
                    tracer.uninstall()
            if trace_this:
                traced.append(rep)
                layer_rows.append(traced_metrics(tracer, rep.wall_s))
                spans_out.extend(tracer.spans)
            else:
                reps.append(rep)
            if rep.failed:
                break
            done = reps + traced
            elapsed = time.perf_counter() - start
            mean_rep = elapsed / len(done)
            need_traced = args.trace and not traced
            if not need_traced and elapsed + mean_rep / 2 >= args.seconds:
                break

        done = reps + traced
        # features_s is short and noisy: take the median of at least
        # FEATURE_PASSES passes, topping up the chain's own with extra ones
        features = [r.features_s for r in reps]
        if not args.trace and not any(r.failed for r in done):
            features += [chains.features_pass(ctx)
                         for _ in range(FEATURE_PASSES - len(features))]
        attempted = sum(r.attempted for r in done)
        failed = sum(r.failed for r in done)
        correct = failed == 0
        if args.trace:
            metrics = per_layer(reps, traced, infos, layer_rows, attempted, failed)
        else:
            metrics = end_to_end(reps, infos, features)
        prov = provenance(args, np)
        prov["reps_untraced"] = len(reps)
        prov["reps_traced"] = len(traced)
        prov["features_passes"] = [round(f, 6) for f in features]
        prov["work"] = work_sizes(reps, infos)
        prov["gates"] = {k: v for r in done for k, v in r.gates.items()}
        prov["gate_failures"] = sorted({f"{k}: {v}" for r in done for k, v in r.gate_notes.items()})
        prov["quality"] = {k: v for r in done for k, v in r.quality.items()}
        prov["quality_misses"] = sorted(
            {f"{k}: {v}" for r in done for k, v in r.quality_notes.items()})
        if args.trace:
            prov["absent_targets"] = tracer.absent
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        out_dir.mkdir(exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        detail = [{"traced": traced_pass, "wall_s": r.wall_s, "features_s": r.features_s,
                   **r.values}
                  for traced_pass, passes in ((False, reps), (True, traced)) for r in passes]
        (out_dir / f"result-{tag}.json").write_text(json.dumps(
            {"provenance": prov, "reps": detail, "setups": infos, **result},
            indent=2, sort_keys=True) + "\n")
        if args.trace:
            with open(out_dir / f"spans-{tag}.jsonl", "w", encoding="utf-8") as fh:
                for s in spans_out:
                    fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                         "parent": s.parent, "run_id": s.run_id,
                                         "id": s.span_id}) + "\n")
        for note in prov["gate_failures"]:
            print(f"gate failed: {note}", file=sys.stderr)
        for note in prov["quality_misses"]:
            print(f"quality target missed: {note}", file=sys.stderr)
        print(json.dumps({"provenance": prov}, sort_keys=True))
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
