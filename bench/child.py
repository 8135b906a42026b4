"""One darkfloquet CLI invocation in a fresh process, as a user runs it.

    python3 bench/child.py --mode {plain,trace,setup} --record REC.json -- ARGS...

ARGS go to ``darkfloquet.cli.main`` unchanged. The record holds the set-up
time (start of this file to the first call into harness), the work time
(first harness call to the CLI's return), the exit code, any exception,
invariant violations seen on returned objects and, in trace mode, the
per-layer summary. ``setup`` mode stops at the first harness call.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import StopAtHarness, Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("plain", "trace", "setup"), required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    import darkfloquet
    if not Path(darkfloquet.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"darkfloquet imported from {darkfloquet.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 97
    tracer = Tracer(timed=opts.mode == "trace", stop_at_harness=opts.mode == "setup")
    t0 = time.perf_counter()
    tracer.install(darkfloquet)
    install_s = time.perf_counter() - t0
    from darkfloquet import cli

    record = {"argv": argv, "error": None}
    t_main = time.perf_counter()
    try:
        code = cli.main(argv)
    except StopAtHarness:
        code = 0
    except SystemExit as exc:   # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = 1
        record["error"] = traceback.format_exc(limit=-3)
    t_end = time.perf_counter()
    cpu_end = time.process_time()

    record["violations"] = tracer.violations
    if tracer.first_harness_call is not None:
        record["setup_s"] = tracer.first_harness_call - T_START - install_s
        record["work_s"] = t_end - tracer.first_harness_call
        record["work_cpu_s"] = cpu_end - tracer.first_harness_cpu
    if opts.mode == "trace":
        record["wall_s"] = t_end - t_main
        record["layers"] = tracer.layer_summary()
    Path(opts.record).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
