"""seqfuse benchmark: one workload's eight stages, timed end to end.

    python3 perfbench/run.py --workload demo-2k --seed 20110901 --trace 0

Run from the root of a source checkout; it imports seqfuse from `src/`.
Each repetition runs the stages in order through `seqfuse.cli.main` in this
one process (a closed loop: one repetition at a time, `train.jobs = 1`, BLAS
pinned to one thread). Repetitions alternate between two populations drawn
from `--seed`: each population runs at least twice, and after that another
repetition starts while one as long as the longest so far still ends within
`--seconds` (default: BENCHMARK.json's `run_seconds`). Each end-to-end time
is the median over a population's repetitions, averaged over the
populations. Every repetition must pass the correctness gate, and
repetitions of one population must write byte-identical manifests.

With `--trace 1` the first population runs twice, untraced and then with
spans around the calls into each layer; the result holds the per-layer
metrics and the tracing overhead (traced minus untraced `pipeline_s`).
Metric names and units come from BENCHMARK.json. The last line of standard
output is the result as one JSON object; run files go to
`.bench_runs/<workload>/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Run as a script, so this directory is already first on sys.path.
import gate
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

MIN_REPS_PER_POPULATION = 2
TRACED_REPS = 2
# Set-up probes run before every repetition, so that they meet the same
# changes in the host's speed as the repetitions do.
SETUP_SAMPLES_PER_REP = 2
PREP_STAGES = ("generate", "cohort", "featurize")
POST_STAGES = ("calibrate", "evaluate", "report", "importance")
# Printed but not in BENCHMARK.json (see perfbench/README.md): the first
# three are bounded through pipeline_s, and peak RSS moves with the seed
# far more than any bound allows.
UNBOUNDED_UNITS = {"prep_s": "s", "post_s": "s", "events_per_s": "1/s", "peak_rss_mb": "MB"}

# Times one set-up in a fresh interpreter: import seqfuse.cli, then write
# the workload config and validate it the way every stage reads it.
SETUP_PROBE = """
import sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
t0 = time.perf_counter()
import seqfuse.cli as cli
workloads.write_config(cli, sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]), Path(sys.argv[5]))
print(time.perf_counter() - t0)
"""


def import_seqfuse():
    if not (SRC / "seqfuse" / "cli.py").is_file():
        sys.exit(f"error: no seqfuse sources at {SRC}; run from the root of a seqfuse checkout")
    sys.path.insert(0, str(SRC))
    import seqfuse.cli as cli

    return cli


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"error: no {path}; run from the root of a seqfuse checkout")
    return json.loads(path.read_text(encoding="utf-8"))


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES_PER_REP):
        argv = [str(BENCH_DIR), name, str(seed), str(workdir / "out"), str(workdir / f"setup-{i}.json")]
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_stages(cli, config_path: Path, tracer) -> tuple[dict[str, float], int]:
    """Calls each stage once; returns wall seconds per stage and the number
    of stages that exited non-zero."""
    seconds: dict[str, float] = {}
    failed = 0
    for stage in cli.STAGES:
        region = tracer.region(f"stage.{stage}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), region:
            t0 = perf_counter()
            code = cli.main([stage, "--config", str(config_path)])
            seconds[stage] = perf_counter() - t0
        if code != 0:
            failed += 1
            print(f"stage {stage} exited with {code}", file=sys.stderr)
    return seconds, failed


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy is first imported, here and in the set-up probes.
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    cli = import_seqfuse()
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workdir = ROOT / ".bench_runs" / args.workload
    outdir = workdir / "out"
    setup: list[float] = []
    seeds = workloads.population_seeds(args.seed)
    configs = []
    for i, seed in enumerate(seeds):
        path = workdir / f"config-{i}.json"
        configs.append((path, workloads.write_config(cli, args.workload, seed, outdir, path)))
    train_cfg = configs[0][1]["train"]
    n_deep_cells = sum(a != "lr" for a in train_cfg["algorithms"]) * len(train_cfg["embedding_modes"])

    # Untraced runs alternate the populations; a traced run repeats the
    # first, untraced and then traced, so the two differ only by tracing.
    reps: list[dict] = []
    manifests: dict[int, dict[str, bytes]] = {}
    attempted = failed = 0
    problems: list[str] = []
    tracer = None
    min_reps = TRACED_REPS if args.trace else MIN_REPS_PER_POPULATION * len(seeds)
    # A repetition starts only if one as long as the longest so far still
    # ends within --seconds, so a run's length stays close to --seconds.
    start = perf_counter()
    longest = 0.0
    while not problems and (
        len(reps) < min_reps or (not args.trace and perf_counter() - start + longest <= args.seconds)
    ):
        rep_start = perf_counter()
        setup += measure_setup(args.workload, args.seed, workdir)
        traced = args.trace == 1 and len(reps) == 1
        population = 0 if args.trace else len(reps) % len(seeds)
        config_path, cfg = configs[population]
        if traced:
            tracer = tracing.Tracer(run_id=f"{args.workload}-seed{seeds[population]}-rep{len(reps)}")
        shutil.rmtree(outdir, ignore_errors=True)
        with tracer.patched() if traced else contextlib.nullcontext():
            seconds, n_failed = run_stages(cli, config_path, tracer if traced else None)
        attempted += len(cli.STAGES)
        failed += n_failed
        if n_failed:
            problems.append(f"{n_failed} stage(s) failed")
            break
        n_events = json.loads((outdir / "featurize" / "features.json").read_text(encoding="utf-8"))["n_events"]
        reps.append(dict(seconds, population=population, traced=traced, n_events=n_events))
        problems += gate.verify_chain(cli, outdir) + gate.check_report(cli, cfg, outdir)
        current = gate.read_manifests(cli, outdir)
        first = manifests.setdefault(population, current)
        if current != first:
            differing = sorted(s for s in current if current[s] != first[s])
            problems.append(f"repetition {len(reps) - 1} manifests differ from its population's first: {differing}")
        longest = max(longest, perf_counter() - rep_start)

    def per_population(value) -> float:
        """Mean over populations of the median over their untraced repetitions."""
        groups: dict[int, list[float]] = {}
        for r in reps:
            if not r["traced"]:
                groups.setdefault(r["population"], []).append(value(r))
        return statistics.mean(statistics.median(v) for v in groups.values())

    def stage_sum(stages):
        return lambda r: sum(r[s] for s in stages)

    env = environment(args.seed)
    env.update(workload=args.workload, population_seeds=seeds, repetitions=len(reps), setup_samples_s=setup)
    e2e: dict[str, float] = {}
    layers: dict[str, float] = {}
    if not problems:
        e2e = {
            "setup_s": statistics.median(setup),
            "pipeline_s": per_population(stage_sum(cli.STAGES)),
            "prep_s": per_population(stage_sum(PREP_STAGES)),
            "train_s": per_population(stage_sum(("train",))),
            "post_s": per_population(stage_sum(POST_STAGES)),
            "events_per_s": per_population(lambda r: r["n_events"] / stage_sum(cli.STAGES)(r)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        env.update(rep_pipeline_s=[stage_sum(cli.STAGES)(r) for r in reps])
        if tracer is not None:
            layers = tracing.layer_metrics(tracer.spans, n_deep_cells)
            layers["trace.overhead_s"] = stage_sum(cli.STAGES)(reps[1]) - e2e["pipeline_s"]
            tracer.write_csv(workdir / "trace.csv")
        for name, value in (e2e | layers).items():
            print(f"{name:36s} {value:>16.6g} {(UNBOUNDED_UNITS | e2e_units | layer_units)[name]}")
        print(f"{'stage_fail_ratio':36s} {failed / attempted:>16.6g} ratio")
        for cell, value in gate.cell_test_aucs(outdir).items():
            print(f"info test_auc {cell} {value:.4f} (information only: seed collisions leak test events)")
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")

    reported = layers if args.trace else e2e
    units = layer_units if args.trace else e2e_units
    if not problems and set(units) - set(reported):
        problems.append(f"metrics {sorted(set(units) - set(reported))} in BENCHMARK.json were not measured")
        print(f"gate: {problems[-1]}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": units[name]} for name in units if name in reported},
    }
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "repetitions_s": reps, **result}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
