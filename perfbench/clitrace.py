"""Run the pifinite CLI with the benchmark's span wrappers installed.

    python3 perfbench/clitrace.py OP_ID <cli arguments...>

Writes the spans to .perfbench_runs/cli-spans-OP_ID.json for the worker to
adopt under its op span, then exits with the CLI's own exit code.
"""

import json
import os
import sys

import spans


def main() -> int:
    op_id, argv = int(sys.argv[1]), sys.argv[2:]
    import pifinite.cli
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = op_id
    try:
        return pifinite.cli.main(argv)
    finally:
        tracer.uninstall()
        os.makedirs(spans.OUT_DIR, exist_ok=True)
        with open(os.path.join(spans.OUT_DIR, f"cli-spans-{op_id}.json"), "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
