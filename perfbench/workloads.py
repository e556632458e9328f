"""Seeded workload plans and one cold iteration of each workload.

:func:`plan` turns ``(workload, seed)`` into the inputs the program
receives; nothing else about a run depends on the seed. The
``run_*`` functions execute one cold iteration inside a fresh
``child.py`` process and return its raw measurements, its operation
count and the failures its output checks found.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("figs-cold", "charz-pool", "api-mixed")

#: Study seeds the figs-cold and charz-pool plans draw from; each one's
#: record digests are pinned in ``digests.json`` (see ``pin.py``).
STUDY_SEEDS = tuple(range(8))

#: The runner's default module subset (``harness.cache.BENCH_MODULES``),
#: passed explicitly so the workload cannot drift with that default.
BENCH_MODULES = ("A0", "A4", "B3", "B9", "C5", "C9")

#: Client threads of api-mixed: the load generator's ``nproc`` = 2.
API_CLIENTS = 2

#: The documented client's poll interval (``ApiClient.wait_job``).
POLL_S = 0.05

#: A repeated request always names a job at least this many positions
#: earlier, so with two closed-loop clients its original has almost
#: always finished; the client still waits for it, which keeps the
#: planned store hits exact.
REPEAT_GAP = 4


def plan(workload: str, seed: int, smoke: bool = False) -> Dict:
    """The generated inputs of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "figs-cold":
        # The headline user path: ``runner fig3 fig10`` at bench scale,
        # sequential and single-process. WCDP (~40%), the hammer kernel
        # (~30%) and the retention kernel (~25%) dominate, so kernel
        # and WCDP changes show here and pool changes do not.
        return {
            "experiments": ["fig3", "fig10"],
            "modules": ["C5"] if smoke else list(BENCH_MODULES),
            "study_seed": rng.choice(STUDY_SEEDS),
        }
    if workload == "charz-pool":
        # The only pool path: shared-memory SoA build, chunk dispatch
        # and merge, plus the row-by-row tRCD interleave. Paper-size
        # 65536-bit rows give a working set 8x figs-cold's against the
        # byte-bounded sweep LRU.
        return {
            "module": "A0",
            "tests": ["rowhammer", "trcd", "retention"],
            "max_workers": 2,
            "scale": "tiny" if smoke else "bench",
            "row_bits": None if smoke else 65536,
            "study_seed": rng.choice(STUDY_SEEDS),
        }
    if workload == "api-mixed":
        # Admission, queue wait, job persistence, the inline campaign
        # service, store publish/read and HTTP dominate here, not the
        # kernels. A third of the requests repeat an earlier one (store
        # hits), far from both 10% and 50%, so neither p50 nor p90
        # straddles the hit and miss populations. tRCD stays out: one
        # tiny tRCD job takes ~1.2 s, too few samples for a p90. Each
        # job's second poll comes after a seeded phase within one poll
        # interval: polling on a lattice anchored at the submit instant
        # would put most latencies on 50 ms steps and make the p50 jump
        # by a whole interval between runs.
        total = 9 if smoke else 90
        repeats = total // 3
        distinct = total - repeats
        study_seeds = rng.sample(range(1, 1 << 20), distinct)
        repeat_at = set(rng.sample(range(REPEAT_GAP, total), repeats))
        jobs: List[Dict] = []
        originals: List[int] = []
        for index in range(total):
            eligible = [i for i in originals if i <= index - REPEAT_GAP]
            if index in repeat_at and eligible:
                origin = jobs[rng.choice(eligible)]
                jobs.append(dict(origin, repeat_of=origin["index"],
                                 index=index,
                                 poll_phase=rng.uniform(0.0, POLL_S)))
                continue
            jobs.append({
                "index": index,
                "module": rng.choice(BENCH_MODULES),
                "test": rng.choice(("rowhammer", "retention")),
                "seed": study_seeds[len(originals)],
                "repeat_of": None,
                "poll_phase": rng.uniform(0.0, POLL_S),
            })
            originals.append(index)
        return {"jobs": jobs, "scale": "tiny", "clients": API_CLIENTS}
    raise ValueError(f"unknown workload {workload!r}")


# -- output checks ----------------------------------------------------------


def records_digest(document: Dict) -> str:
    """sha256 of a serialized study with its provenance block removed."""
    body = {k: v for k, v in document.items() if k != "provenance"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def record_counts(document: Dict) -> Dict[str, int]:
    counts = {"rowhammer": 0, "trcd": 0, "retention": 0}
    for module in document["modules"].values():
        for test in counts:
            counts[test] += len(module[test])
    return counts


def pinned_digests() -> Dict:
    with open(os.path.join(HERE, "digests.json")) as handle:
        return json.load(handle)


def pin_key(plan_: Dict, smoke: bool) -> str:
    return f"{'smoke' if smoke else 'full'}:seed={plan_['study_seed']}"


class Checks:
    """Counts operations and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def _rusage_cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _cpu_now() -> float:
    return (
        _rusage_cpu(resource.RUSAGE_SELF)
        + _rusage_cpu(resource.RUSAGE_CHILDREN)
    )


def _peak_rss_mb(extra_kb: float = 0.0) -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child + extra_kb) / 1024.0


def _counter_delta(before: Dict, after: Dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def _probe_counters(before: Dict, after: Dict) -> Dict[str, float]:
    return {
        key: _counter_delta(before, after, f"repro_{name}_total")
        for key, name in (
            ("hammer", "probes_hammer"), ("retention", "probes_retention"),
            ("sweep_hits", "sweep_hits"), ("sweep_misses", "sweep_misses"),
            ("sweep_evictions", "sweep_evictions"),
            ("cache_misses", "study_cache_misses"),
            ("cache_hits", "study_cache_disk_hits"),
            ("cache_memory_hits", "study_cache_memory_hits"),
            ("write_bytes", "study_cache_write_bytes"),
        )
    }


# -- figs-cold --------------------------------------------------------------


def run_figs_cold(plan_: Dict, work: str, options: Dict) -> Dict:
    from repro.core.scale import StudyScale
    from repro.harness import cache, runner
    from repro.harness.store import entry_name
    from repro.obs.metrics import REGISTRY

    seed = plan_["study_seed"]
    cache_dir = os.path.join(work, "study-cache")
    out_dir = os.path.join(work, "out")
    argv = list(plan_["experiments"]) + [
        "--modules", *plan_["modules"], "--seed", str(seed),
        "--cache-dir", cache_dir, "--out", out_dir,
    ]
    if options.get("warm"):
        # Self-test only: a warm in-process memo the guard must catch.
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            runner.main(argv + ["--cache-dir", cache_dir + "-warm"])
    else:
        cache.clear_cache()
    checks = Checks()
    options["ready"]()
    before = REGISTRY.counter_values()
    with open(os.path.join(work, "runner.out"), "w") as sink, \
            contextlib.redirect_stdout(sink):
        cpu0, t0 = _cpu_now(), time.monotonic()
        with options["span"]("bench.run"):
            code = runner.main(argv)
        wall, cpu = time.monotonic() - t0, _cpu_now() - cpu0
    counters = _probe_counters(before, REGISTRY.counter_values())

    checks.check(code == 0, f"runner exited {code}")
    studies = len(plan_["experiments"])
    checks.check(
        counters["cache_misses"] == studies
        and counters["cache_hits"] + counters["cache_memory_hits"] == 0,
        f"cold-start guard: {counters['cache_misses']:.0f} store misses "
        f"for {studies} distinct studies",
    )
    pins = pinned_digests()["figs-cold"].get(pin_key(plan_, options["smoke"]))
    records = {"rowhammer": 0, "trcd": 0, "retention": 0}
    for experiment, test in (("fig3", "rowhammer"), ("fig10", "retention")):
        checks.check(
            os.path.isfile(os.path.join(out_dir, f"{experiment}.json")),
            f"{experiment}: no JSON export",
        )
        fingerprint = cache.study_fingerprint(
            (test,), plan_["modules"], StudyScale.bench(), seed
        )
        path = os.path.join(cache_dir, entry_name(fingerprint))
        try:
            with open(path) as handle:
                document = json.load(handle)
        except (OSError, ValueError) as error:
            checks.check(False, f"{test} study not published: {error}")
            continue
        for key, value in record_counts(document).items():
            records[key] += value
        expected = (pins or {}).get(test)
        if options.get("corrupt"):
            expected = "0" * 64
        checks.check(
            records_digest(document) == expected,
            f"{test} study digest differs from the pinned one",
        )
    return {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb(),
        "latencies": [wall], "jobs": 1, "checks": checks,
        "counters": counters, "records": records,
    }


# -- charz-pool -------------------------------------------------------------


def charz_scale(plan_: Dict):
    import dataclasses

    from repro.core.scale import scale_preset
    from repro.dram.calibration import ModuleGeometry

    scale = scale_preset(plan_["scale"])
    if plan_["row_bits"]:
        scale = dataclasses.replace(
            scale, geometry=ModuleGeometry(row_bits=plan_["row_bits"])
        )
    return scale


def run_charz_pool(plan_: Dict, work: str, options: Dict) -> Dict:
    from repro.core.campaign import run_parallel
    from repro.core.serialization import study_to_dict
    from repro.harness import cache
    from repro.obs.metrics import REGISTRY

    scale = charz_scale(plan_)
    checks = Checks()
    cache.clear_cache()
    options["ready"]()
    before = REGISTRY.counter_values()
    cpu0, t0 = _cpu_now(), time.monotonic()
    with options["span"]("bench.run"):
        study = run_parallel(
            [plan_["module"]], scale=scale, seed=plan_["study_seed"],
            tests=tuple(plan_["tests"]), max_workers=plan_["max_workers"],
        )
    wall, cpu = time.monotonic() - t0, _cpu_now() - cpu0
    counters = _probe_counters(before, REGISTRY.counter_values())
    document = study_to_dict(study)
    checks.check(
        counters["hammer"] > 0 and counters["retention"] > 0,
        "cold-start guard: the campaign issued no probes",
    )
    pins = pinned_digests()["charz-pool"].get(pin_key(plan_, options["smoke"]))
    expected = "0" * 64 if options.get("corrupt") else pins
    checks.check(
        records_digest(document) == expected,
        "pooled study digest differs from the pinned sequential one",
    )
    return {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb(),
        "latencies": [wall], "jobs": 1, "checks": checks,
        "counters": counters, "records": record_counts(document),
        "workers": plan_["max_workers"],
    }


# -- api-mixed --------------------------------------------------------------


def free_port() -> int:
    """A currently free localhost port (``python -m repro.api`` prints
    the port it was asked for, so ``--port 0`` is not discoverable)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _proc_cpu(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_kb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    return 0.0


class ApiFixture:
    """A ``python -m repro.api`` server with fresh store and state dirs,
    started and stopped by the benchmark."""

    def __init__(self, work: str, trace_dir: str = None):
        self.port = free_port()
        args = [
            "--port", str(self.port),
            "--store-dir", os.path.join(work, "store"),
            "--state-dir", os.path.join(work, "state"),
        ]
        if trace_dir:
            command = [sys.executable, os.path.join(HERE, "serve.py"),
                       trace_dir] + args
        else:
            command = [sys.executable, "-m", "repro.api"] + args
        self._log = open(os.path.join(work, "server.log"), "w")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT,
            cwd=work,
        )

    def wait_ready(self, client, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"API server exited {self.process.returncode} "
                    "before answering /v1/healthz"
                )
            try:
                client.health()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then SIGKILL; reaps."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self._log.close()


def _direct_digests(plan_: Dict, cache_path: str) -> Dict[str, str]:
    """Digests of a direct in-process run of every distinct request,
    shared by a run's iterations through ``cache_path``."""
    if os.path.isfile(cache_path):
        with open(cache_path) as handle:
            return json.load(handle)
    from repro.core.scale import scale_preset
    from repro.core.serialization import study_to_dict
    from repro.core.study import CharacterizationStudy

    digests = {}
    for job in plan_["jobs"]:
        if job["repeat_of"] is not None:
            continue
        study = CharacterizationStudy(
            scale=scale_preset(plan_["scale"]), seed=job["seed"]
        ).run(modules=[job["module"]], tests=(job["test"],))
        digests[str(job["index"])] = records_digest(study_to_dict(study))
    tmp = cache_path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(digests, handle)
    os.replace(tmp, cache_path)
    return digests


def run_api_mixed(plan_: Dict, work: str, options: Dict) -> Dict:
    fixture = ApiFixture(work, options.get("trace_dir"))
    try:
        return _drive_api(plan_, options, fixture)
    finally:
        fixture.stop()


def _drive_api(plan_: Dict, options: Dict, fixture: ApiFixture) -> Dict:
    from repro.api.client import ApiClient, ApiError

    jobs = plan_["jobs"]
    fixture.wait_ready(ApiClient(port=fixture.port))
    options["ready"]()
    done = [threading.Event() for _ in jobs]
    outcomes: List[Dict] = [None] * len(jobs)
    cursor = iter(range(len(jobs)))
    cursor_lock = threading.Lock()
    # Server job stamps are wall-clock; spans are monotonic.
    wall_to_mono = time.monotonic_ns() - time.time_ns()
    span = options["span"]
    recorder = options.get("recorder")

    def wait(client, job_id: str, phase: float) -> Tuple[Dict, int]:
        """Poll until terminal, as ``ApiClient.wait_job`` does, except
        that the second poll comes ``phase`` seconds after the first;
        returns the terminal job record and the number of polls."""
        deadline = time.monotonic() + 120.0
        delay, polls = phase, 0
        while True:
            polls += 1
            job = client.get_job(job_id)
            if job["state"] in ("completed", "failed", "cancelled"):
                return job, polls
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {job['state']}")
            time.sleep(delay)
            delay = POLL_S

    def client_loop() -> None:
        client = ApiClient(port=fixture.port, tenant="bench", timeout=60.0)
        with span("bench.client"):
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                job = jobs[index]
                if job["repeat_of"] is not None:
                    done[job["repeat_of"]].wait(timeout=120)
                payload = {
                    "modules": [job["module"]], "tests": [job["test"]],
                    "scale": plan_["scale"], "seed": job["seed"],
                }
                outcome = {"index": index, "error": None}
                try:
                    t0 = time.monotonic_ns()
                    posted = client.submit_job(payload)
                    t1 = time.monotonic_ns()
                    final, polls = wait(client, posted["id"],
                                        job["poll_phase"])
                    t2 = time.monotonic_ns()
                    document = None
                    if final["state"] == "completed":
                        document = client.get_study(final["fingerprint"])
                    t3 = time.monotonic_ns()
                    outcome.update(
                        t=(t0, t1, t2, t3), job=final, document=document,
                        requests=1 + polls + (document is not None),
                    )
                except (ApiError, OSError, TimeoutError, ValueError) as error:
                    outcome["error"] = f"{type(error).__name__}: {error}"
                outcomes[index] = outcome
                done[index].set()
                if recorder is not None and outcome["error"] is None:
                    _job_spans(recorder, outcome, wall_to_mono)

    pid = fixture.process.pid
    server_cpu0, cpu0 = _proc_cpu(pid), _cpu_now()
    t0 = time.monotonic()
    threads = [threading.Thread(target=client_loop)
               for _ in range(plan_["clients"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    wall = time.monotonic() - t0
    cpu = _cpu_now() - cpu0 + _proc_cpu(pid) - server_cpu0
    server_hwm = _proc_hwm_kb(pid)
    metrics_text = ApiClient(port=fixture.port).metrics_text() \
        if options.get("trace_dir") else ""

    checks = Checks()
    direct = _direct_digests(plan_, options["direct_cache"])
    hits = 0
    latencies = []
    records = {"rowhammer": 0, "trcd": 0, "retention": 0}
    for job, outcome in zip(jobs, outcomes):
        label = f"job {job['index']} ({job['module']}/{job['test']})"
        if outcome is None:
            checks.check(False, f"{label}: never ran")
            continue
        if not checks.check(outcome["error"] is None,
                            f"{label}: {outcome['error']}"):
            continue
        record = outcome["job"]
        if not checks.check(record["state"] == "completed",
                            f"{label}: ended {record['state']}"):
            continue
        hits += record.get("cache") == "hit"
        for key, value in record_counts(outcome["document"]).items():
            records[key] += value
        latencies.append((outcome["t"][2] - outcome["t"][0]) / 1e9)
        origin = job["repeat_of"] if job["repeat_of"] is not None \
            else job["index"]
        expected = direct[str(origin)]
        if options.get("corrupt"):
            expected = "0" * 64
        checks.check(
            records_digest(outcome["document"]) == expected,
            f"{label}: served study differs from a direct run",
        )
    planned = sum(job["repeat_of"] is not None for job in jobs)
    checks.check(
        hits == planned,
        f"cold-start guard: {hits} store hits for {planned} planned "
        "repeats",
    )
    return {
        "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(server_hwm),
        "latencies": latencies, "jobs": len(jobs), "checks": checks,
        "records": records, "api": _api_layers(outcomes, metrics_text),
    }


def _job_spans(recorder, outcome, wall_to_mono) -> None:
    """Lay one job's server-side phases, taken from its job record,
    onto the client thread's timeline as spans that partition its
    latency: admission, queue wait, run (a store hit or a campaign plus
    publish; the traced server's job span nests here), notification
    (server finished -> client saw it) and fetch."""
    t0, _, t2, t3 = outcome["t"]
    record = outcome["job"]

    def mono(stamp):
        return min(max(int(stamp * 1e9) + wall_to_mono, t0), t2)

    created = mono(record["created"])
    started = max(mono(record["started"] or record["created"]), created)
    finished = max(mono(record["finished"]), started)
    root = recorder.add("api.job", t0, t3, parent=recorder.current())
    run = "api.run_hit" if record.get("cache") == "hit" else "api.run_miss"
    recorder.add("api.submit", t0, created, parent=root)
    recorder.add("api.queue_wait", created, started, parent=root)
    recorder.add(run, started, finished, parent=root, anchor=record["id"])
    recorder.add("api.notify", finished, t2, parent=root)
    recorder.add("api.fetch", t2, t3, parent=root)


def _metric_value(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def _api_layers(outcomes, metrics_text) -> Dict[str, float]:
    """Layer values the API exposes: job records and ``/metrics``."""
    sums = {
        "api.submit_s": 0.0, "api.queue_wait_s": 0.0, "api.run_miss_s": 0.0,
        "api.run_hit_s": 0.0, "service.campaign_s": 0.0,
        "api.notify_s": 0.0, "api.fetch_s": 0.0, "service.units": 0.0,
        "service.retries": 0.0, "store.hits": 0.0, "store.misses": 0.0,
    }
    requests = 0
    done = [o for o in outcomes if o and o["error"] is None]
    for outcome in done:
        t0, t1, t2, t3 = outcome["t"]
        record = outcome["job"]
        requests += outcome["requests"]
        latency = (t2 - t0) / 1e9
        sums["api.submit_s"] += (t1 - t0) / 1e9
        sums["api.queue_wait_s"] += record["started"] - record["created"]
        run = record["finished"] - record["started"]
        sums["api.notify_s"] += latency - (
            record["finished"] - record["created"]
        )
        sums["api.fetch_s"] += (t3 - t2) / 1e9
        if record.get("cache") == "hit":
            sums["api.run_hit_s"] += run
            sums["store.hits"] += 1
        else:
            metrics = record.get("metrics", {})
            sums["api.run_miss_s"] += run
            sums["service.campaign_s"] += metrics.get("wall_seconds", 0.0)
            sums["service.units"] += metrics.get("units_completed", 0)
            sums["service.retries"] += metrics.get("retries", 0)
            sums["store.misses"] += 1
    sums["api.publish_s"] = sums["api.run_miss_s"] - sums["service.campaign_s"]
    sums["api.requests_per_job"] = requests / max(len(done), 1)
    sums["probe.hammer"] = _metric_value(
        metrics_text, "repro_probes_hammer_total")
    sums["probe.retention"] = _metric_value(
        metrics_text, "repro_probes_retention_total")
    hits = _metric_value(metrics_text, "repro_sweep_hits_total")
    misses = _metric_value(metrics_text, "repro_sweep_misses_total")
    sums["sweep.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    sums["sweep.evictions"] = _metric_value(
        metrics_text, "repro_sweep_evictions_total")
    sums["store.publish_bytes"] = _metric_value(
        metrics_text, "repro_study_cache_write_bytes_total")
    return sums


RUNNERS = {
    "figs-cold": run_figs_cold,
    "charz-pool": run_charz_pool,
    "api-mixed": run_api_mixed,
}
