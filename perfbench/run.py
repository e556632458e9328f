"""Benchmark of record: cold end-to-end figures plus a traced layer table.

Run from the repository root::

    python3 perfbench/run.py --workload figs-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload api-mixed --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test

Each iteration is a fresh ``child.py`` process with fresh store,
cache and state directories, so every measured iteration is cold.
Iterations repeat while another one fits in ``--seconds`` (at least
one, or two with ``--trace 1``) and the run reports medians. With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1``
iterations alternate untraced and traced, and it carries the per-layer
metrics, ``layers.coverage`` and ``obs.trace_overhead``, after a
printed layer table. The Chrome trace of the last traced iteration is
written to ``.perfbench-out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

#: Every run ends within 180 s: no iteration starts that would not
#: finish inside this budget, and a child still running at its end is
#: killed together with its process group.
BUDGET_S = 165.0

#: Set-up is sampled at least this many times per run (extra
#: ``--setup-only`` children when fewer iterations fit).
MIN_SETUPS = 3

#: Environment variables that would make a run measure something other
#: than the program's defaults.
FORBIDDEN_ENV = ("REPRO_SWEEP_CACHE", "REPRO_SWEEP_CACHE_BYTES",
                 "REPRO_PROBE_ENGINE", "REPRO_STUDY_CACHE_DIR")

SHM_GLOB = "/dev/shm/repro-soa-*"

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "ratio", "job_p50_s": "s", "job_p90_s": "s",
    "jobs_per_s": "1/s",
}

PER_LAYER = {
    "study.build_context_s": "s", "study.contexts": "count",
    "study.preheat_s": "s", "study.module_s": "s",
    "wcdp.rowhammer_s": "s", "wcdp.retention_s": "s", "wcdp.trcd_s": "s",
    "wcdp.calls": "count",
    "rowhammer.characterize_s": "s", "rowhammer.records": "count",
    "retention.characterize_s": "s", "retention.records": "count",
    "trcd.characterize_s": "s", "trcd.records": "count",
    "probe.hammer": "count", "probe.retention": "count",
    "sweep.hit_ratio": "ratio", "sweep.evictions": "count",
    "rng.normals_calls": "count", "rng.normals_s": "s",
    "campaign.shared_state_s": "s", "campaign.pool_s": "s",
    "campaign.unit_busy_s": "s", "campaign.worker_util": "ratio",
    "campaign.merge_s": "s", "campaign.units": "count",
    "store.publish_s": "s", "store.publish_bytes": "B",
    "store.load_s": "s", "store.serialize_s": "s",
    "store.hits": "count", "store.misses": "count",
    "harness.cache_s": "s", "harness.analyze_s": "s",
    "harness.export_s": "s",
    "service.units": "count", "service.retries": "count",
    "service.campaign_s": "s", "service.job_s": "s",
    "api.submit_s": "s", "api.queue_wait_s": "s", "api.run_miss_s": "s",
    "api.run_hit_s": "s", "api.publish_s": "s", "api.notify_s": "s",
    "api.requests_per_job": "count", "api.fetch_s": "s",
    "layers.coverage": "ratio", "layers.unattributed_s": "s",
    "obs.trace_overhead": "ratio",
}


# -- process hygiene --------------------------------------------------------


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of a process group."""
    members = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(stat.split("/")[2]))
    return members


def _reap_group(pgid: int, grace: float = 3.0) -> bool:
    """Wait for what the child started (API server, pool workers, the
    shared-memory resource tracker) to leave; after ``grace`` seconds
    terminate, then kill, the rest. True if nothing had to be killed."""
    deadline = time.monotonic() + grace
    while _group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    clean = not _group_members(pgid)
    sig, kill_at = signal.SIGTERM, time.monotonic() + 10.0
    while _group_members(pgid):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            break
        if time.monotonic() > kill_at:
            sig = signal.SIGKILL
        time.sleep(0.05)
    return clean


class Run:
    """One benchmark run: iterations of one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool = False, flags=()):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.flags = list(flags)
        self.started = time.monotonic()
        self.work_root = os.path.join(
            ROOT, ".perfbench-work",
            f"{workload}-{seed}-{os.getpid()}-{time.monotonic_ns()}",
        )
        self.hygiene_failures: List[str] = []
        self.hygiene_checks = 0
        self.shm_before = set(glob.glob(SHM_GLOB))

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.started)

    def child(self, index: int, traced: bool = False,
              setup_only: bool = False) -> Dict:
        work = os.path.join(self.work_root, f"it{index}")
        os.makedirs(work)
        out = os.path.join(work, "result.json")
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--work", work, "--out", out,
            "--direct-cache", os.path.join(self.work_root, "direct.json"),
        ] + self.flags
        trace_dir = None
        if traced:
            trace_dir = os.path.join(work, "spans")
            os.makedirs(trace_dir)
            command += ["--trace-dir", trace_dir]
        if self.smoke:
            command.append("--smoke")
        if setup_only:
            command.append("--setup-only")
        src = os.path.join(ROOT, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        spawned = time.monotonic_ns()
        with open(os.path.join(work, "child.log"), "w") as log:
            process = subprocess.Popen(
                command, cwd=work, env=env, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
            timed_out = False
            try:
                process.wait(timeout=max(self.remaining(), 1.0))
            except subprocess.TimeoutExpired:
                timed_out = True
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
            finally:
                group_clean = _reap_group(process.pid)
        result = {"failures": [], "attempted": 0}
        try:
            with open(out) as handle:
                result = json.load(handle)
        except (OSError, ValueError):
            result["attempted"] = 1
            result["failures"] = [
                "child left no result (exit code "
                f"{process.returncode}, timed out: {timed_out})"
            ]
        self._hygiene(group_clean, f"iteration {index} left processes "
                      "running after it exited")
        leaked = set(glob.glob(SHM_GLOB)) - self.shm_before
        for path in leaked:
            os.unlink(path)
        self._hygiene(not leaked, f"iteration {index} leaked shared "
                      f"memory: {sorted(leaked)}")
        if result.get("ready_ns"):
            result["setup_s"] = (result["ready_ns"] - spawned) / 1e9
        result["traced"] = traced
        result["trace_dir"] = trace_dir
        return result

    def _hygiene(self, ok: bool, message: str) -> None:
        self.hygiene_checks += 1
        if not ok:
            self.hygiene_failures.append(message)

    def execute(self) -> List[Dict]:
        """Iterate while another iteration of the last one's length
        still fits in ``--seconds`` (at least one; two when traced)."""
        iterations: List[Dict] = []
        last = 0.0
        needed = 2 if self.trace else 1
        while len(iterations) < needed or (
            time.monotonic() - self.started + last <= self.seconds
        ):
            if iterations and self.remaining() < last * 1.5:
                break
            began = time.monotonic()
            traced = self.trace and len(iterations) % 2 == 1
            iterations.append(self.child(len(iterations), traced=traced))
            last = time.monotonic() - began
        self.setups = [it["setup_s"] for it in iterations if "setup_s" in it]
        self.setup_children: List[Dict] = []
        while len(self.setups) < MIN_SETUPS and self.remaining() > 20.0:
            extra = self.child(len(iterations) + len(self.setup_children),
                               setup_only=True)
            self.setup_children.append(extra)
            if "setup_s" not in extra:
                break
            self.setups.append(extra["setup_s"])
        return iterations

    def cleanup(self) -> None:
        shutil.rmtree(self.work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work_root))
        except OSError:
            pass


# -- aggregation ------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run: Run, iterations: List[Dict]) -> Dict[str, float]:
    measured = [it for it in iterations
                if "wall_s" in it and not it["traced"]]
    latencies = [lat for it in measured for lat in it["latencies"]]
    wall_total = sum(it["wall_s"] for it in measured)
    attempted, failed = totals(run, iterations)
    return {
        "setup_s": _median(run.setups),
        "wall_s": _median(it["wall_s"] for it in measured),
        "cpu_s": _median(it["cpu_s"] for it in measured),
        "peak_rss_mb": _median(it["peak_rss_mb"] for it in measured),
        "ok_frac": 1.0 - failed / attempted,
        "job_p50_s": _median(latencies),
        "job_p90_s": _p90(latencies),
        "jobs_per_s": (
            sum(it["jobs"] for it in measured) / wall_total
            if wall_total else 0.0
        ),
    }


def totals(run: Run, iterations: List[Dict]):
    children = iterations + run.setup_children
    attempted = run.hygiene_checks + sum(it["attempted"] for it in children)
    failed = len(run.hygiene_failures) + sum(
        len(it["failures"]) for it in children
    )
    return max(attempted, 1), failed


def layer_metrics(iteration: Dict) -> tuple:
    """Per-layer values of one traced iteration, with its layer table,
    coverage and spans."""
    spans = layers.timed_spans(
        layers.load_spans(iteration["trace_dir"]), iteration["owner_pid"]
    )
    table = layers.self_times(spans)
    cover = layers.coverage(spans, iteration["owner_pid"])
    counters = iteration.get("counters", {})
    api = iteration.get("api", {})
    records = iteration.get("records", {})

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    pool_s = self_s("campaign.pool")
    busy_s = table.get("campaign.unit", {}).get("total_s", 0.0)
    workers = iteration.get("workers", 1)
    sweep_lookups = counters.get("sweep_hits", 0) + counters.get(
        "sweep_misses", 0)
    values = {
        "study.build_context_s": self_s("study.build_context"),
        "study.contexts": calls("study.build_context"),
        "study.preheat_s": self_s("study.preheat"),
        "study.module_s": self_s("study.module") + self_s("study.run"),
        "wcdp.rowhammer_s": self_s("wcdp.rowhammer"),
        "wcdp.retention_s": self_s("wcdp.retention"),
        "wcdp.trcd_s": self_s("wcdp.trcd"),
        "wcdp.calls": sum(calls(f"wcdp.{t}")
                          for t in ("rowhammer", "retention", "trcd")),
        "rowhammer.characterize_s": self_s("rowhammer.characterize"),
        "rowhammer.records": records.get("rowhammer", 0),
        "retention.characterize_s": self_s("retention.characterize"),
        "retention.records": records.get("retention", 0),
        "trcd.characterize_s": self_s("trcd.characterize"),
        "trcd.records": records.get("trcd", 0),
        "probe.hammer": counters.get("hammer", api.get("probe.hammer", 0)),
        "probe.retention": counters.get(
            "retention", api.get("probe.retention", 0)),
        "sweep.hit_ratio": (
            counters["sweep_hits"] / sweep_lookups if sweep_lookups
            else api.get("sweep.hit_ratio", 0.0)
        ),
        "sweep.evictions": counters.get(
            "sweep_evictions", api.get("sweep.evictions", 0)),
        "rng.normals_calls": calls("rng.normals"),
        "rng.normals_s": self_s("rng.normals"),
        "campaign.shared_state_s": self_s("campaign.shared_state"),
        "campaign.pool_s": pool_s,
        "campaign.unit_busy_s": busy_s,
        "campaign.worker_util": (
            busy_s / (pool_s * workers) if pool_s else 0.0
        ),
        "campaign.merge_s": self_s("campaign.merge"),
        "campaign.units": calls("campaign.unit"),
        "store.publish_s": self_s("store.publish"),
        "store.publish_bytes": counters.get(
            "write_bytes", api.get("store.publish_bytes", 0)),
        "store.load_s": self_s("store.load"),
        "store.serialize_s": self_s("store.serialize"),
        "store.hits": counters.get(
            "cache_hits", api.get("store.hits", 0)),
        "store.misses": counters.get(
            "cache_misses", api.get("store.misses", 0)),
        "harness.cache_s": self_s("harness.cache"),
        "harness.analyze_s": self_s("harness.experiment"),
        "harness.export_s": self_s("harness.export"),
        "service.job_s": self_s("service.job"),
        "layers.coverage": cover["coverage"],
        "layers.unattributed_s": cover["unattributed_s"],
    }
    for name in PER_LAYER:
        if name.startswith(("api.", "service.")) and name not in values:
            values[name] = api.get(name, 0.0)
    return values, table, cover, spans


def per_layer(run: Run, iterations: List[Dict]) -> Dict[str, float]:
    traced = [it for it in iterations if it["traced"] and "wall_s" in it]
    untraced = [it for it in iterations
                if not it["traced"] and "wall_s" in it]
    samples = [layer_metrics(iteration) for iteration in traced]
    values = {name: _median(s[0][name] for s in samples)
              for name in PER_LAYER if name != "obs.trace_overhead"}
    base = _median(it["wall_s"] for it in untraced)
    values["obs.trace_overhead"] = (
        _median(it["wall_s"] for it in traced) / base - 1.0 if base else 0.0
    )
    if samples:
        _, table, cover, spans = samples[-1]
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{run.workload}-seed{run.seed}")
        layers.write_chrome_trace(spans, stem + ".trace.json")
        print_table(table, cover, stem + ".trace.json")
    return values


def print_table(table, cover, trace_path: str) -> None:
    print(f"layer table (last traced iteration; Chrome trace: "
          f"{os.path.relpath(trace_path, ROOT)})")
    print(f"{'layer':<26} {'self s':>10} {'calls':>9}")
    rows = sorted(
        ((name, row) for name, row in table.items()
         if not name.startswith(layers.ROOT_PREFIX)),
        key=lambda item: -item[1]["self_s"],
    )
    for name, row in rows:
        print(f"{name:<26} {row['self_s']:>10.4f} {row['calls']:>9d}")
    print(f"{'unattributed':<26} {cover['unattributed_s']:>10.4f}")
    print(f"{'traced wall':<26} {cover['wall_s']:>10.4f}   "
          f"coverage {cover['coverage']:.4f}")


def result_line(run: Run, iterations: List[Dict]) -> Dict:
    attempted, failed = totals(run, iterations)
    if run.trace:
        values, units = per_layer(run, iterations), PER_LAYER
    else:
        values, units = end_to_end(run, iterations), END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def benchmark(workload, seed, seconds, trace, smoke=False, flags=()):
    """Run one benchmark; returns (result line, failure messages)."""
    run = Run(workload, seed, seconds, trace, smoke=smoke, flags=flags)
    try:
        iterations = run.execute()
        env = next((it["env"] for it in iterations if "env" in it), {})
        print("env " + json.dumps(dict(
            env, iterations=len(iterations), setups=len(run.setups),
        ), sort_keys=True))
        result = result_line(run, iterations)
        failures = run.hygiene_failures + [
            f for it in iterations + run.setup_children
            for f in it["failures"]
        ]
        return result, failures
    finally:
        run.cleanup()


def preflight() -> str:
    """Why the benchmark cannot run here, or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return f"no program source under {os.path.join(ROOT, 'src')}"
    set_vars = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if set_vars:
        return ("unset these to measure the program's defaults: "
                + ", ".join(set_vars))
    return None


def self_test() -> int:
    """Smoke-size checks of the benchmark itself."""
    problems = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            problems.append(message)

    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result, failures = benchmark(workload, 7, 0, trace, smoke=True)
            names = PER_LAYER if trace else END_TO_END
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={int(trace)}: smoke run correct "
                   f"{failures}")
            expect(
                all(result["metrics"].get(name, {}).get("unit") == unit
                    for name, unit in names.items()),
                f"{workload} trace={int(trace)}: every metric printed "
                "with its unit",
            )
    for workload in workloads.WORKLOADS:
        result, failures = benchmark(workload, 7, 0, False, smoke=True,
                                     flags=["--corrupt"])
        expect(result["failed"] > 0 and result["metrics"]["ok_frac"][
            "value"] < 1.0,
               f"{workload}: a corrupted digest counts as a failure")
    result, failures = benchmark("figs-cold", 7, 0, False, smoke=True,
                                 flags=["--warm"])
    expect(any("cold-start guard" in f for f in failures),
           "figs-cold: a warm in-process cache trips the cold-start guard")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    problem = preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result, failures = benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for failure in failures:
        print("failure: " + failure.strip().replace("\n", "\n  "))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
