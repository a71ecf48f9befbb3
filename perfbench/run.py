"""End-to-end and per-layer benchmark of the baryfed commands.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload fedsim_wide --seed 0 --seconds 55 --trace 0

Every repetition runs one real command (``baryfed run`` or ``baryfed
compare-agg``) in a fresh interpreter with ``--threads 1`` and the BLAS
pinned to BLAS_THREADS threads, and checks its artifacts (checks.py).
Repetitions continue until ``--seconds`` are spent (at least MIN_REPS).

``--trace 0`` reports the end-to-end metrics: medians over repetitions of
the command's wall time, its set-up time (``import baryfed.cli`` plus one
``load_config``) and its peak RSS, and the quality numbers read from the
artifacts. ``--trace 1`` alternates untraced and traced repetitions; a traced
one wraps the public functions of each layer (child.py) and reports calls,
self time and computed work per function and per module (spans.py).

The master seeds are ``base + seed * len(base)`` for the workload's base
seed list (``--workload-seeds`` replaces it), so ``--seed 0`` runs the seeds
named in WORKLOADS and other seeds give held-out inputs. The dataset draw is
fixed by the config, as in the package's acceptance tests. Outputs go under
``.perfbench_work/``; the last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median
from dataclasses import dataclass, field

from checks import CHECKS, CheckError
from child import ROOT_SPAN, WRAPPED, membw_gbps
from spans import NAME, PARENT, coverage, per_function, per_layer, quartiles, useful_ratio

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
BLAS_THREADS = 1
MIN_REPS = 3
HARD_LIMIT_S = 150.0
DEFAULT_LAMBDAS = [0, 0.1, 0.25, 0.5, 1, 2, 4, 10, "inf"]
METHODS = ["eaa", "w2b", "rklb"]


@dataclass(frozen=True)
class Workload:
    command: str
    base_seeds: tuple
    config: dict
    why: str
    # wrapped functions the command is not expected to call
    optional: frozenset = frozenset()


WORKLOADS = {
    # The acceptance BENCH config: a 2-32-3 MLP (P=195), 10 clients,
    # 20 rounds x 30 full-batch epochs, mc 10, the default lambda grid.
    # Not in BENCHMARK.json: its wall_s spread over 10 seeds (13-24% of the
    # median on a 2-core shared host) is too close to the largest bound; the
    # layers it stresses are also measured on the other two workloads.
    "fedsim_small": Workload(
        command="run",
        base_seeds=(0, 1, 2),
        config={
            "dataset": {"kind": "synth", "classes": 3, "dim": 2, "n_per_class": 200, "spread": 0.4},
            "model": {"hidden": [32]},
            "partition": {"n_clients": 10, "beta": 0.5},
            "optimizer": {"lr_initial": 0.5, "lr_final": 0.05},
            "federation": {"rounds": 20, "local_epochs": 30, "batch_size": 600},
            "personalization": {"lambdas": DEFAULT_LAMBDAS},
            "eval": {"mc_samples": 10},
        },
        why="18k gradient and optimizer calls on 195-long vectors: Python dispatch in training dominates",
        optional=frozenset({"evaluation.wilcoxon_signed_rank"}),
    ),
    # MNIST-shaped: 10 classes x 784 dims, a 784-100-10 MLP (P=79,510),
    # 20 clients with small shards, minibatches of 64. h0=20 keeps the
    # sampled-weight noise on 784 inputs small enough that the global model
    # reaches ~100% on every seed tried, so accuracy does not swing by seed.
    "fedsim_wide": Workload(
        command="run",
        base_seeds=(0,),
        config={
            "dataset": {"kind": "synth", "classes": 10, "dim": 784, "n_per_class": 200, "spread": 0.1},
            "model": {"hidden": [100]},
            "partition": {"n_clients": 20, "beta": 0.5, "min_shard": 5},
            "optimizer": {"lr_initial": 2.0, "lr_final": 0.2, "h0": 20.0},
            "federation": {"rounds": 4, "local_epochs": 3, "batch_size": 64},
            "personalization": {"lambdas": [0, 1, "inf"]},
            "eval": {"mc_samples": 4},
        },
        why="every layer works on 80k-long vectors: BLAS and memory bandwidth, not dispatch",
        optional=frozenset({"evaluation.wilcoxon_signed_rank"}),
    ),
    # The criterion-08 config: a 2-8-3 MLP, 4 clients, 3 rounds x 3 epochs,
    # mc 4, compared over 20 seeds x 3 aggregation methods.
    "compare_agg": Workload(
        command="compare-agg",
        base_seeds=tuple(range(20)),
        config={
            "dataset": {"kind": "synth", "classes": 3, "dim": 2, "n_per_class": 40, "spread": 0.3},
            "model": {"hidden": [8]},
            "partition": {"n_clients": 4, "beta": 1.0, "min_shard": 5},
            "optimizer": {"lr_initial": 0.3, "lr_final": 0.1},
            "federation": {"rounds": 3, "local_epochs": 3, "batch_size": 200},
            "eval": {"mc_samples": 4},
            "compare": {"methods": METHODS},
        },
        why="the only signed-rank tests (exact at n=20); evaluation of settings the command never reads",
    ),
}

FUNCTIONS = tuple(f"{module}.{fn}" for module, fn, _ in WRAPPED)
HOT = (
    "models.loss_and_grad",
    "models.predict_proba_mc",
    "models.forward",
    "variopt.ivon_step",
    "variopt.sample_params",
    "federation.client_update",
    "geometry.aggregate",
    "geometry.project",
    "evaluation.evaluate",
    "evaluation.wilcoxon_signed_rank",
)
LAYERS = ("cli", "config", "data", "federation", "models", "variopt", "geometry", "evaluation")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "gm_gd_acc": "%"}
# Printed with the end-to-end metrics but not in BENCHMARK.json: error_rate
# is 0 on working code, and these vary too much between master seeds for a
# bound of 0.25 (gm_gd_nll by 17-30% on fedsim_wide); pm_ld_acc has no
# compare_agg value.
REPORTED_ONLY = {"gm_gd_nll": "nats", "pm_ld_acc": "%"}


@dataclass
class Rep:
    traced: bool
    child: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    useful: int = 0
    digests: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def seeds_for(workload: Workload, seed: int, base=None) -> list[int]:
    base = list(base if base is not None else workload.base_seeds)
    return [s + seed * len(base) for s in base]


def child_env(src: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = src
    return env


def traced_metrics(spans: list, useful: int, membw: float) -> dict[str, float]:
    """Per-layer numbers of one traced command."""
    fns = per_function(spans)
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0.0}
    out: dict[str, float] = {}
    for name in FUNCTIONS:
        row = fns.get(name, empty)
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
        if name in HOT:
            out[f"{name}.us_per_call"] = 1e6 * row["incl_s"] / row["calls"] if row["calls"] else 0.0
    layers = per_layer(fns)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)
    agg = fns.get("geometry.aggregate", empty)
    grad = fns.get("models.loss_and_grad", empty)
    out["geometry.aggregate.computed_gbps"] = agg["work"] / agg["incl_s"] / 1e9 if agg["incl_s"] else 0.0
    out["models.loss_and_grad.computed_gflops"] = grad["work"] / grad["incl_s"] / 1e9 if grad["incl_s"] else 0.0
    out["evaluation.evaluate.useful_ratio"] = useful_ratio(useful, fns.get("evaluation.evaluate", empty)["calls"])
    out["data.partition.attempts"] = fns.get("data.partition_indices", empty)["work"]
    out["trace.coverage"] = coverage(spans)
    out["machine.membw_gbps"] = membw
    return out


def traced_names() -> list[str]:
    """Per-layer metrics one traced command yields (the rest span repetitions)."""
    return [name for name in layer_units() if not name.startswith(("setup.", "trace.overhead"))]


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in HOT:
            units[f"{name}.us_per_call"] = "us"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update(
        {
            "geometry.aggregate.computed_gbps": "GB/s",
            "models.loss_and_grad.computed_gflops": "GFLOP/s",
            "evaluation.evaluate.useful_ratio": "fraction",
            "data.partition.attempts": "count",
            "trace.coverage": "fraction",
            "machine.membw_gbps": "GB/s",
            "setup.import_s": "s",
            "setup.config_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


def coverage_errors(workload: Workload, layer: dict, child: dict) -> list[str]:
    errors = [f"wrapper target missing: {name}" for name in child.get("missing", [])]
    errors += [
        f"coverage guard: {name} recorded no calls"
        for name in FUNCTIONS
        if name not in workload.optional and layer.get(f"{name}.calls", 0) == 0
    ]
    if not child.get("restored", False):
        errors.append("a wrapper was not removed after the run")
    return errors


def run_rep(workload: Workload, config: dict, work: str, src: str, traced: bool, run_id: str, timeout: float) -> Rep:
    rep = Rep(traced=traced)
    out_dir = os.path.join(work, config["out_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    result = os.path.join(work, "child.json")
    spans_path = os.path.join(work, "spans.json")
    for path in (result, spans_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, os.path.join(HERE, "child.py")]
    if traced:
        cmd += ["--trace", spans_path, run_id]
    cmd += [result, src, workload.command, "config.json", "--threads", "1"]
    with open(os.path.join(work, "child.log"), "a") as log:
        log.write(f"== {run_id} traced={traced}\n")
        log.flush()
        try:
            proc = subprocess.run(cmd, cwd=work, env=child_env(src), stdout=log, stderr=log, timeout=timeout)
        except subprocess.TimeoutExpired:
            rep.errors.append(f"{run_id}: timed out after {timeout:.0f} s")
            return rep
    if proc.returncode != 0:
        rep.errors.append(f"{run_id}: exit code {proc.returncode} (see {work}/child.log)")
    try:
        with open(result) as fh:
            rep.child = json.load(fh)
        if proc.returncode == 0:
            rep.quality, rep.useful, rep.digests = CHECKS[workload.command](out_dir, config)
        if traced and proc.returncode == 0:
            with open(spans_path) as fh:
                doc = json.load(fh)
            spans = doc["spans"]
            if doc["run_id"] != run_id or not spans:
                raise CheckError(f"spans file does not belong to {run_id}")
            roots = [s[NAME] for s in spans if s[PARENT] == -1]
            if roots != [ROOT_SPAN]:
                raise CheckError(f"expected one root span {ROOT_SPAN}, got {roots}")
            rep.layer = traced_metrics(spans, rep.useful, rep.child["membw_gbps"])
            rep.errors += [f"{run_id}: {e}" for e in coverage_errors(workload, rep.layer, rep.child)]
    except (OSError, ValueError, KeyError, IndexError, CheckError) as exc:
        rep.errors.append(f"{run_id}: {type(exc).__name__}: {exc}")
    return rep


def warm_up(work: str, src: str) -> str | None:
    """Import the package once (fills the bytecode cache); error text or None."""
    result = os.path.join(work, "warmup.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--warmup", result, src],
        cwd=work,
        env=child_env(src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        return proc.stderr.strip() or f"exit code {proc.returncode}"
    return None


def environment(root: str, seeds: list[int], membw: float) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    llc = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            llc = fh.read().strip()
    except OSError:
        pass
    commit = dirty = None
    if os.path.isdir(os.path.join(root, ".git")):
        git = ["git", "-C", root]
        commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip() or None
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "git_dirty": dirty,
        "workload_seeds": seeds,
        "machine.membw_gbps": membw,
    }


def describe(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"median of {len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workload-seeds",
        default=None,
        help="comma-separated base master seeds (default: the workload's own)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def measure(args, workload: Workload, config: dict, work: str, src: str) -> list[Rep]:
    """Repeat the command (untraced, or untraced/traced pairs) for --seconds."""
    start = time.perf_counter()
    reps: list[Rep] = []
    durations: list[float] = []
    while True:
        t = time.perf_counter()
        for traced in (False, True) if args.trace else (False,):
            timeout = max(5.0, HARD_LIMIT_S + 20 - (time.perf_counter() - start))
            run_id = f"{args.workload}/seed{args.seed}/rep{len(reps)}"
            reps.append(run_rep(workload, config, work, src, traced, run_id, timeout))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        enough = len(durations) >= (1 if args.trace else MIN_REPS)
        if (enough and elapsed + median(durations) > args.seconds) or elapsed + max(durations) > HARD_LIMIT_S:
            return reps


def compare_artifacts(reps: list[Rep]):
    """Every passing repetition, traced or not, wrote the same bytes."""
    reference = next((r.digests for r in reps if not r.errors), None)
    for r in reps:
        if not r.errors and r.digests != reference:
            changed = sorted(k for k in reference if r.digests.get(k) != reference[k])
            r.errors.append(f"{'traced' if r.traced else 'untraced'} artifacts differ from the first rep: {changed}")


def summarize(trace: bool, reps: list[Rep]) -> tuple[dict, dict, dict]:
    """(metrics as name -> (value, unit), quality, timing samples)."""

    def med(values):
        return median(values) if values else 0.0

    timed = [r for r in reps if not r.traced and "wall_s" in r.child]
    good = [r for r in reps if not r.errors]
    quality = good[0].quality if good else {}
    samples = {
        "wall_s": [r.child["wall_s"] for r in timed],
        "setup_s": [r.child["import_s"] + r.child["config_s"] for r in timed],
        "peak_rss_mb": [r.child["maxrss_mb"] for r in timed],
    }
    if trace:
        traced = [r for r in reps if r.traced and r.layer]
        values = {name: med([r.layer[name] for r in traced]) for name in traced_names()}
        values["setup.import_s"] = med([r.child["import_s"] for r in timed])
        values["setup.config_s"] = med([r.child["config_s"] for r in timed])
        values["trace.overhead_s"] = med([r.child["wall_s"] for r in traced]) - med(samples["wall_s"])
        units = layer_units()
    else:
        values = {name: med(samples[name]) for name in samples}
        values["gm_gd_acc"] = quality.get("gm_gd_acc", 0.0)
        units = END_TO_END_UNITS
    return {name: (values[name], unit) for name, unit in units.items()}, quality, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "baryfed", "__init__.py")):
        print(f"no baryfed package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    base = [int(s) for s in args.workload_seeds.split(",")] if args.workload_seeds else None
    seeds = seeds_for(workload, args.seed, base)
    work = os.path.join(root, WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = {**workload.config, "seeds": seeds, "out_dir": "out"}
    with open(os.path.join(work, "config.json"), "w") as fh:
        json.dump(config, fh, indent=2)
    error = warm_up(work, src)
    if error:
        print(f"cannot import baryfed from {src}: {error}", file=sys.stderr)
        return 1

    reps = measure(args, workload, config, work, src)
    compare_artifacts(reps)
    errors = [e for r in reps for e in r.errors]
    failed = sum(1 for r in reps if r.errors)
    metrics, quality, samples = summarize(bool(args.trace), reps)
    membw = metrics["machine.membw_gbps"][0] if args.trace else membw_gbps()
    env = environment(root, seeds, membw)

    print(f"workload {args.workload}: baryfed {workload.command}, master seeds {seeds}, trace {args.trace}")
    print(f"  why: {workload.why}")
    for name, (value, unit) in metrics.items():
        extra = f"  ({describe(samples[name])})" if name in samples and samples[name] else ""
        print(f"  {name:45s} {value:14.6g} {unit}{extra}")
    print(f"  {'error_rate':45s} {failed / len(reps):14.6g} fraction  ({failed} of {len(reps)} commands)")
    for name, unit in REPORTED_ONLY.items():
        if not args.trace and name in quality:
            print(f"  {name:45s} {quality[name]:14.6g} {unit}")
    for e in errors:
        print(f"  FAILED {e}", file=sys.stderr)
    print("env: " + json.dumps(env, sort_keys=True))

    result = {
        "correct": not errors,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(os.path.join(root, WORK_DIR, "results"), exist_ok=True)
    record = os.path.join(root, WORK_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        record_doc = {"result": result, "env": env, "errors": errors, "quality": quality, "samples": samples}
        json.dump(record_doc, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
