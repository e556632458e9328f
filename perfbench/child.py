"""One cold iteration of one workload, in a fresh process.

Started by ``run.py`` (never by hand): it imports the program, runs
the workload's fixed work once, checks the outputs and writes its
measurements as JSON to ``--out``. With ``--trace-dir`` the layer
wrappers of ``layers.py`` are installed first and the spans land in
that directory. With ``--setup-only`` it stops once set-up is done
(imports, and for api-mixed a server answering ``/v1/healthz``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402


class SetupDone(Exception):
    """Raised by the ready hook of a ``--setup-only`` child."""


def _environment() -> dict:
    import multiprocessing
    import platform

    import numpy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--direct-cache", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--warm", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    # A launcher that ignores SIGINT (a background shell job) would pass
    # that on to the API server, whose clean shutdown is SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    result = {"ready_ns": None, "failures": [], "attempted": 0}

    def ready() -> None:
        result["ready_ns"] = time.monotonic_ns()
        if args.setup_only:
            raise SetupDone

    recorder = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace_dir:
        recorder = layers.Recorder(args.trace_dir)
        layers.install(recorder)
        span = recorder.span
    options = {
        "ready": ready, "span": span, "recorder": recorder,
        "trace_dir": args.trace_dir, "smoke": args.smoke,
        "warm": args.warm, "corrupt": args.corrupt,
        "direct_cache": args.direct_cache,
    }
    plan = workloads.plan(args.workload, args.seed, smoke=args.smoke)
    try:
        measured = workloads.RUNNERS[args.workload](plan, args.work, options)
        checks = measured.pop("checks")
        result.update(measured)
        result["attempted"] = checks.attempted
        result["failures"] = checks.failures
    except SetupDone:
        pass
    except Exception:  # noqa: BLE001 - reported as a failed operation
        result["attempted"] = 1
        result["failures"] = [traceback.format_exc()]
    result["env"] = _environment()
    if recorder is not None:
        recorder.flush()
        result["owner_pid"] = os.getpid()
    tmp = args.out + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(result, handle)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
