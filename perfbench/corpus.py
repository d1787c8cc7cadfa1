"""Workload scenarios and the set-up step that writes their corpora.

Run as a script, this is the set-up child: it synthesises one workload's
scenario from a seed, writes the corpus directory the timed chain reads,
writes reference values next to (never inside) that directory, and prints
one JSON line with its own timings.  The parent runs it in a separate
process so that set-up memory does not count toward the chain's peak RSS.

    python3 perfbench/corpus.py --workload ingest_1hz --seed 42 \
        --size full --out DIR/corpus --refs DIR/refs.npz
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from elorantd import synth  # noqa: E402
from elorantd.features import PolyTermIndex, Standardizer, poly_expand  # noqa: E402
from elorantd.stats import rmse  # noqa: E402
from elorantd.types import FACTORS_7  # noqa: E402

WORKLOADS = ("wlr_path", "ingest_1hz", "lasso_sweep")
SIZES = ("full", "tiny")

# The lasso sweep always fits the same cubic site and --seed redraws only
# its TD measurement noise.  Across sites the coordinate-descent work of a
# sweep varies about 2.7x (the conditioning of the degree-3 design follows
# the weather draw), which would swamp any timing comparison; across noise
# draws on one site it varies by a few percent.
LASSO_SITE_SEED = 42
HOLDOUT_FRACTION = 0.25  # the CLI's default [sweep] holdout_fraction

# README split for the default scenario
README_TRAIN = "2024-10-01..2024-12-01,2025-01-20..2025-02-01"
README_TEST = "2024-12-01..2025-01-20"


@dataclass(frozen=True)
class Plan:
    """Everything a workload's chain needs besides the corpus itself."""

    workload: str
    duration_hours: int
    td_samples_per_hour: int
    scenario: str  # "default" or "cubic"
    train: str = ""
    test: str = ""
    wlr_iterations: int = 0
    predict_requests: int = 0
    predict_window_hours: int = 168
    gridmap_epoch: str = "2024-10-01T00:00:00Z"
    lasso_degree: int = 3
    setup_repeats: int = 3


def plan_for(workload: str, size: str = "full") -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
    tiny = size == "tiny"
    if workload == "wlr_path":
        if tiny:
            return Plan(workload, 24 * 35, 60, "default",
                        train="2024-10-01..2024-10-22", test="2024-10-22..2024-11-05",
                        wlr_iterations=5, predict_requests=12, predict_window_hours=48,
                        setup_repeats=1)
        return Plan(workload, 2952, 60, "default",
                    train=README_TRAIN, test=README_TEST,
                    wlr_iterations=12, predict_requests=100)
    if workload == "ingest_1hz":
        return Plan(workload, 48 if tiny else 24 * 7, 3600, "default",
                    setup_repeats=1 if tiny else 3)
    # the sweep trains on Oct 1 .. Dec 1 only, so the corpus stops there
    if tiny:
        return Plan(workload, 24 * 14, 60, "cubic",
                    train="2024-10-01..2024-10-15", lasso_degree=2, setup_repeats=1)
    return Plan(workload, 24 * 61, 60, "cubic", train="2024-10-01..2024-12-01")


def scenario_config(plan: Plan, seed: int) -> synth.ScenarioConfig:
    if plan.scenario == "cubic":
        base = synth.cubic_scenario_config(LASSO_SITE_SEED)
    else:
        base = synth.default_scenario_config(seed)
    return replace(
        base,
        duration_hours=plan.duration_hours,
        td_samples_per_hour=plan.td_samples_per_hour,
    )


def redraw_noise(scenario, seed: int):
    """The same site with a fresh draw of the hourly TD noise."""
    cfg = scenario.config
    rng = np.random.default_rng(np.random.SeedSequence([seed, cfg.seed]))
    hourly_td = scenario.hourly_truth + rng.standard_normal(len(scenario.epochs)) * cfg.noise_sd_ns
    delta = hourly_td - scenario.hourly_td
    per_hour = cfg.td_samples_per_hour
    samples = tuple(
        (when, value + delta[i // per_hour])
        for i, (when, value) in enumerate(scenario.td_samples)
    )
    return replace(scenario, td_samples=samples, hourly_td=hourly_td)


def ingest_references(scenario) -> dict[str, np.ndarray]:
    """Hourly TD means and the FACTORS_7 path tensor, from generator arrays.

    The hourly means are taken straight from the generated samples, not
    through the library's aggregation, so the ingest chain is checked
    against values it never computed.
    """
    per_hour = scenario.config.td_samples_per_hour
    td = np.fromiter((v for _, v in scenario.td_samples), dtype=float)
    hourly = td.reshape(len(scenario.epochs), per_hour).mean(axis=1)
    cols = [scenario.tensor.factors.index(f) for f in FACTORS_7]
    return {
        "epoch_hours": np.array([e.hours_since_epoch for e in scenario.epochs]),
        "hourly_td": hourly,
        "tensor": scenario.tensor.values[:, :, cols],
    }


def sweep_references(scenario, degree: int) -> dict[str, np.ndarray]:
    """Validation RMSE of the unpenalised least-squares fit the sweep tends to.

    Same receiver-site design and chronological holdout as ``elorantd
    sweep``, solved by the library's brute-force normal-equations oracle
    rather than by coordinate descent.
    """
    cols = [scenario.tensor.factors.index(f) for f in FACTORS_7]
    x = scenario.tensor.values[:, -1, cols]  # the last path point is the receiver
    y = scenario.hourly_td
    cut = int(round(len(y) * (1.0 - HOLDOUT_FRACTION)))
    standardizer = Standardizer.fit(x[:cut])
    index = PolyTermIndex.build(x.shape[1], degree)
    beta = synth.ols_oracle(poly_expand(standardizer.transform(x[:cut]), index), y[:cut])
    pred = poly_expand(standardizer.transform(x[cut:]), index) @ beta
    return {"ols_validation_rmse": np.array(rmse(y[cut:], pred))}


def set_up(workload: str, seed: int, size: str, out: Path, refs: Path,
           perturb_reference: bool = False) -> dict:
    """Synthesise, write the corpus and references; return timings and sizes."""
    plan = plan_for(workload, size)
    t0 = time.perf_counter()
    scenario = synth.generate_scenario(scenario_config(plan, seed))
    if plan.scenario == "cubic":
        scenario = redraw_noise(scenario, seed)
    t1 = time.perf_counter()
    synth.write_corpus(scenario, out)
    t2 = time.perf_counter()
    if workload == "ingest_1hz":
        arrays = ingest_references(scenario)
        if perturb_reference:
            arrays["hourly_td"][len(arrays["hourly_td"]) // 2] += 1e-6
    elif workload == "lasso_sweep":
        arrays = sweep_references(scenario, plan.lasso_degree)
    else:
        arrays = {}
    np.savez(refs, **arrays)
    t3 = time.perf_counter()
    return {
        "generate_s": t1 - t0,
        "write_corpus_s": t2 - t1,
        "references_s": t3 - t2,
        "total_s": t3 - t0,
        "td_rows": len(scenario.td_samples),
        "weather_rows": len(scenario.epochs) * len(scenario.registry),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=SIZES)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--refs", required=True, type=Path)
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args(argv)
    info = set_up(args.workload, args.seed, args.size, args.out, args.refs,
                  args.perturb_reference)
    print(json.dumps(info, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
