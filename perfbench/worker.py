"""One benchmark process: set up a workload, run a fixed number of whole
rounds of ops as a single closed-loop caller, then check every answer.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --launched T [--setup-only]

``--launched`` is the CLOCK_MONOTONIC reading taken just before this
process was started; set-up time runs from there to the first op.  The last
line of standard output is one JSON object for ``run.py``.

With ``--trace 1`` rounds alternate between untraced and traced, so both
halves see the same mix of inputs and cache states; the traced rounds give
the per-layer numbers and the untraced ones the base of the overhead ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy

import spans
import speed
import workloads

MAX_FAILURES_SHOWN = 5


def round_count(workload, seconds: float, traced: bool) -> int:
    """Whole rounds that take about ``seconds`` on the reference machine.

    The count depends only on ``seconds``, never on measured time, so two
    commits compared with the same setting do exactly the same work."""
    rounds = max(workload.MIN_ROUNDS, round(seconds / workload.NOMINAL_ROUND_S))
    return rounds + rounds % 2 if traced else rounds


def run_rounds(workload, rounds: list, traced: bool, tracer):
    """Run the rounds; returns per-op records, digests and the calibration
    samples taken before the first op and after every op, outside the timed
    intervals, so that samples i and i + 1 bracket op i."""
    pass_kind = getattr(workload, "CALIBRATION", "interpreter")
    records, digests, calibration = [], [], [speed.calibrate(pass_kind)]
    # records: (round, kind, seconds, traced, failure)
    for index, ops in enumerate(rounds):
        traced_round = traced and index % 2 == 1
        if traced_round:
            tracer.install()
        for op in ops:
            op_id = len(records)
            if traced_round:
                tracer.op = op_id
                tracer.enter(f"op.{op.kind}")
                op_span = len(tracer.spans) - 1
            failure = None
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:       # an op that raises is a failed op
                failure = f"{op.kind}: raised {exc!r}"
            elapsed = time.perf_counter() - t0
            if traced_round:
                tracer.leave()
                tracer.op = None
                if workload_is_cli(workload):
                    _adopt_child_spans(tracer, op_id, op_span)
            digest = None
            if failure is None:
                try:
                    digest = op.digest(result)
                except Exception as exc:
                    failure = f"{op.kind}: unreadable answer {exc!r}"
            records.append((index, op.kind, elapsed, traced_round, failure))
            digests.append((op, digest))
            calibration.append(speed.calibrate(pass_kind))
        if traced_round:
            tracer.uninstall()
    return records, digests, calibration


def workload_is_cli(workload) -> bool:
    return isinstance(workload, workloads.CliSession)


def _adopt_child_spans(tracer, op_id: int, op_span: int) -> None:
    path = os.path.join(spans.OUT_DIR, f"cli-spans-{op_id}.json")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return
    os.remove(path)
    tracer.merge(data, op_span)


def check(records, digests) -> list[str]:
    """Compare every answer with its reference; returns the failure messages."""
    failures = []
    for record, (op, digest) in zip(records, digests):
        failure = record[4]
        if failure is None:
            try:
                expected = op.expect()
            except Exception as exc:
                failure = f"{op.kind}: reference raised {exc!r}"
            else:
                if digest != expected:
                    failure = f"{op.kind}: got {digest!r}, expected {expected!r}"
        if failure is not None:
            failures.append(failure)
    return failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload]()
    rounds = workload.setup(args.seed, round_count(workload, args.seconds, args.trace == 1))
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_closed = speed.calibrate()    # closes the set-up interval for run.py

    tracer = spans.Tracer()
    if workload_is_cli(workload):
        traced = args.trace == 1
        plain = workloads.CLI_PREFIX
        shim = [sys.executable, os.path.join(os.path.dirname(__file__), "clitrace.py")]

        def runner(argv):
            if traced and tracer.op is not None:
                return workloads.run_cli(argv, shim + [str(tracer.op)])
            return workloads.run_cli(argv, plain)
        workload.runner = runner

    records, digests, calibration = run_rounds(workload, rounds, args.trace == 1, tracer)
    who = resource.RUSAGE_CHILDREN if workload_is_cli(workload) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    failures = check(records, digests)

    result = {
        "setup_s": setup_s,
        "rounds": len(rounds),
        "records": [r[:4] for r in records],
        "calibration": calibration,
        "setup_closed": setup_closed,
        "failures": failures[:MAX_FAILURES_SHOWN],
        "failed": len(failures),
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
    }
    if args.trace:
        result["trace"] = tracer.dump()
        del result["trace"]["spans"]
        os.makedirs(spans.OUT_DIR, exist_ok=True)
        path = os.path.join(spans.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["trace"]["span_file"] = path
        result["trace"]["span_count"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
