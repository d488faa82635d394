"""The pifinite benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
``src``).  Every workload runs in fresh processes, one at a time: a warm-up
that compiles the sources, set-up samples, then one worker that times whole
rounds of ops as a single closed-loop caller and checks every answer.

The run keeps to one CPU, and every timed interval (op or set-up sample)
lies between two calibration samples, so the end-to-end times are reported
at reference speed: scaled by how fast the machine ran around them (see
``speed.py``).  Numpy's BLAS threads, which the library never uses, are
limited to one.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced run.  The line before it carries the environment stamp,
the raw (unscaled) end-to-end metrics and failure details, and both are also
written to ``.perfbench_runs/`` with the per-op records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import speed
from spans import OUT_DIR

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("parse-build", "deep-heights", "cli-session", "form-kernels")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170            # the whole run, set-up samples included
SETUP_LIMIT_S = 30

CLI_COMMANDS = ("card", "loop", "profile", "classify", "beta", "delta", "wreath",
                "counterexample", "table", "verify")
SPAN_METRICS = (  # reported as <span>.self_s
    "groups.build_group.cyclic", "groups.build_group.symmetric", "groups.build_group.dihedral",
    "groups.direct_product", "groups.wreath_cyclic",
    "groups.FiniteGroup.validated", "groups.FiniteGroup.unvalidated",
    "groups.subgroup", "groups.centralizer_subgroup", "groups.conjugacy_classes",
    "groups.p_loop_decomposition", "groups.count_commuting_p_tuples",
    "spaces.height_cardinality", "spaces.p_adic_loop", "spaces.normal_form",
    "parser.parse_space", "parser.parse_group",
    "heights.height_profile", "heights.delta_iter", "heights.beta_element",
    "heights.alpha_splitter", "heights.verify_wreath_identity",
    "quadforms.count_null_square_two_forms",
)
CALL_METRICS = ("groups.subgroup", "groups.centralizer_subgroup",
                "groups.count_commuting_p_tuples", "spaces.height_cardinality",
                "spaces.p_adic_loop")
COUNT_METRICS = ("groups.tables_built", "groups.tables_validated", "groups.table_cells",
                 "quadforms.forms_enumerated")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: str) -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.path.join(root, "src")
    # numpy's BLAS starts a thread per core at import and the library never
    # uses it; those threads only compete with the one caller for its CPU
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("PIFINITE_ORDER_CAP", None)     # measure the default budgets
    return env


def worker_argv(args, setup_only: bool) -> list[str]:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--launched", str(time.monotonic())]
    return argv + ["--setup-only"] if setup_only else argv


def run_child(argv, env, timeout) -> str:
    """Run one child in its own process group; on timeout the whole group,
    CLI processes included, is killed and reaped."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def run_worker(argv, env, timeout) -> dict:
    return json.loads(run_child(argv, env, timeout).strip().splitlines()[-1])


def cli_import_s(env, timeout) -> float:
    start = time.monotonic()
    run_child([sys.executable, "-c", "import pifinite.cli"], env, timeout)
    return time.monotonic() - start


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": model,
            "loadavg_start": os.getloadavg(), "platform": platform.platform()}


def op_rate(records) -> float:
    """Ops per second of op time: the median over rounds, so that one round
    slowed by something else on the machine does not move it."""
    per_round: dict = {}
    for r in records:
        per_round.setdefault(r[0], []).append(r[2])
    return statistics.median(len(d) / sum(d) for d in per_round.values())


def scaled_records(result: dict) -> list:
    durations = speed.at_reference_speed([r[2] for r in result["records"]],
                                         result["calibration"])
    return [(r[0], r[1], d, r[3]) for r, d in zip(result["records"], durations)]


def end_to_end(setup_s: float, records: list, peak_rss_mb: float) -> dict:
    durations = [r[2] for r in records]
    deciles = statistics.quantiles(durations, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (op_rate(records), "1/s"),
        "op_p50_ms": (statistics.median(durations) * 1000, "ms"),
        "op_p90_ms": (deciles[8] * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(import_s: float, result: dict, cli: bool) -> dict:
    """Per-layer metrics, as measured; only the overhead ratio compares
    rounds at reference speed, since the two kinds of round alternate."""
    trace = result["trace"]
    traced = [r for r in result["records"] if r[3]]
    untraced = [r for r in result["records"] if not r[3]]
    scaled = scaled_records(result)
    rounds = len({r[0] for r in traced})
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    out = {}
    for name in SPAN_METRICS:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) / rounds, "s")
    for name in CALL_METRICS:
        out[f"{name}.calls"] = (calls.get(name, 0) / rounds, "count")
    for name in COUNT_METRICS:
        out[name] = (counts.get(name, 0) / rounds, "count")
    centralizers = calls.get("groups.centralizer_subgroup", 0)
    out["groups.centralizer.reuse_ratio"] = (
        counts.get("groups.centralizer.reused", 0) / centralizers if centralizers else 0.0, "ratio")
    lookups = counts.get("spaces.height_cache.hits", 0) + counts.get("spaces.height_cache.misses", 0)
    out["spaces.height_cache.hit_ratio"] = (
        counts.get("spaces.height_cache.hits", 0) / lookups if lookups else 0.0, "ratio")
    forms_s = self_s.get("quadforms.count_null_square_two_forms", 0.0)
    out["quadforms.forms_per_s"] = (
        counts.get("quadforms.forms_enumerated", 0) / forms_s if forms_s else 0.0, "1/s")

    out["cli.import_s"] = (import_s if cli else 0.0, "s")
    for kind in CLI_COMMANDS + ("refusal",):
        times = [r[2] for r in untraced if r[1] == kind and cli]
        out[f"cli.{kind}.wall_ms"] = (statistics.median(times) * 1000 if times else 0.0, "ms")

    out["trace_overhead_ratio"] = (op_rate([r for r in scaled if r[3]])
                                   / op_rate([r for r in scaled if not r[3]]), "ratio")
    op_wall = sum(r[2] for r in traced)
    attributed = sum(v for k, v in self_s.items() if not k.startswith("op."))
    out["trace.op_wall_s"] = (op_wall / rounds, "s")
    out["trace.attributed_s"] = (attributed / rounds, "s")
    out["trace.unattributed_s"] = ((op_wall - attributed) / rounds, "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pifinite", "__init__.py")):
        return fail("run from the root of a pifinite checkout (src/pifinite is missing)")
    env = child_env(root)
    stamp = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    cli = args.workload == "cli-session"

    def budget(cap: float = RUN_LIMIT_S) -> float:
        return min(cap, RUN_LIMIT_S - (time.monotonic() - started))

    stamp["pinned_cpu"] = speed.pin()
    setup_calibration: list[float] = []     # before each set-up sample, and after the last

    def setup_sample() -> float:
        setup_calibration.append(speed.calibrate())
        if cli:
            return cli_import_s(env, budget(SETUP_LIMIT_S))
        return run_worker(worker_argv(args, True), env, budget(SETUP_LIMIT_S))["setup_s"]

    try:
        setup_sample()      # warm-up: compiles the sources, so no sample pays for it
        setup_calibration.clear()
        samples = [setup_sample() for _ in range(SETUP_SAMPLES if cli else SETUP_SAMPLES - 1)]
        setup_calibration.append(speed.calibrate())
        result = run_worker(worker_argv(args, False), env, budget())
    except subprocess.TimeoutExpired as exc:
        print(json.dumps({"env": stamp, "error": f"run over its time limit: {exc}"}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc))

    if not cli:
        samples.append(result["setup_s"])  # the run's own set-up is the last sample
        setup_calibration.append(result["setup_closed"])
    setup_s = statistics.median(samples)
    if args.trace:
        metrics = per_layer(setup_s, result, cli)
    else:
        metrics = end_to_end(statistics.median(speed.at_reference_speed(samples,
                                                                         setup_calibration)),
                             scaled_records(result), result["peak_rss_mb"])

    attempted = len(result["records"])
    stamp["numpy"] = result["numpy"]
    info = {"env": stamp, "workload": args.workload, "seed": args.seed,
            "rounds": result["rounds"], "ops_attempted": attempted,
            "fail_ratio": result["failed"] / attempted, "failures": result["failures"],
            "setup_samples_s": samples,
            "raw": {k: v for k, (v, _) in end_to_end(setup_s, result["records"],
                                                    result["peak_rss_mb"]).items()},
            "calibration_median_s": statistics.median(result["calibration"]),
            "wall_s": time.monotonic() - started}
    if args.trace:
        info["span_file"] = result["trace"]["span_file"]
        info["span_count"] = result["trace"]["span_count"]
        info["absent_layers"] = result["trace"]["absent"]
    line = {"correct": result["failed"] == 0, "attempted": attempted,
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"info": info, "result": line, "records": result["records"],
                   "calibration": result["calibration"], "setup_samples": samples,
                   "setup_calibration": setup_calibration}, fh)
    print(json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
