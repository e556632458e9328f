"""Span recording around the program's layer entry points.

The benchmark measures layers from the outside: :func:`install` swaps
each layer's public entry point (``CharacterizationStudy.build_context``,
``core.wcdp.*_wcdp``, the Alg. 1-3 ``characterize_*`` functions,
``RngHub.standard_normals``, the campaign pool helpers, the study store
and ``core.serialization.study_to_dict``) for a wrapper that records a
span. Nothing inside the program changes, and an untraced run never
calls :func:`install`.

Spans nest through a per-thread stack, so a layer's self time is its
span's duration minus the time of the spans it called. Pool workers
inherit the wrappers through ``fork``; each worker writes its spans to
``spans-<pid>.jsonl`` in the trace directory whenever one of its root
spans ends, and :func:`load_spans` merges the files. Timestamps are
``time.monotonic_ns()``, which every process on the host shares.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Span names that mark a timeline rather than a layer: their self time
#: is the benchmark's explicit ``unattributed`` row.
ROOT_PREFIX = "bench."


class Recorder:
    """Per-process span buffer; one per traced process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked worker must not inherit the parent's open spans or
        # its unflushed buffer.
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **args):
        stack = self._stack()
        span_id = f"{self.pid}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic_ns()
        try:
            yield args
        finally:
            end = time.monotonic_ns()
            stack.pop()
            self.add(name, start, end, span_id=span_id, parent=parent,
                     **args)
            if parent is None and not name.startswith(ROOT_PREFIX):
                # A root span outside the benchmark's own timelines is a
                # pool worker's unit: ship it now, since forked workers
                # leave through os._exit and never run an exit hook.
                self.flush()

    def current(self) -> Optional[str]:
        """Id of this thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, name: str, start: int, end: int, span_id: str = None,
            parent: Optional[str] = None, **args) -> str:
        """Record a finished span (also used for spans derived from
        the program's own timestamps, such as API job records)."""
        span_id = span_id or f"{self.pid}:{next(self._ids)}"
        with self._lock:
            self.spans.append({
                "name": name, "id": span_id, "parent": parent,
                "pid": self.pid, "tid": threading.get_ident(),
                "start": start, "end": end, "args": args,
            })
        return span_id

    def flush(self) -> None:
        """Append the buffered spans to this process's span file."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    def wrap(self, owner, attribute: str, name: str,
             describe=None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``describe(*args, **kwargs)`` may return extra span arguments
        taken from the call's arguments (the job a span serves).
        """
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name) as span_args:
                if describe is not None:
                    span_args.update(describe(*args, **kwargs))
                return original(*args, **kwargs)

        setattr(owner, attribute, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the benchmark attributes time to.

    Functions are patched where their callers look them up: ``study``
    imports the WCDP helpers by name, the runner imports
    ``run_experiment`` and ``export_output`` by name, and the API
    server imports ``run_job`` by name.
    """
    from repro import rng
    from repro.api import server as api_server
    from repro.core import (
        campaign, fused, probe, retention, rowhammer, serialization,
        study, trcd,
    )
    from repro.harness import cache, runner, store

    wrap = recorder.wrap
    wrap(runner, "run_experiment", "harness.experiment")
    wrap(runner, "export_output", "harness.export")
    wrap(cache, "get_study", "harness.cache")
    wrap(store.StudyStore, "store", "store.publish")
    wrap(store.StudyStore, "load", "store.load")
    wrap(serialization, "study_to_dict", "store.serialize")
    wrap(study.CharacterizationStudy, "run", "study.run")
    wrap(study.CharacterizationStudy, "run_module", "study.module")
    wrap(study.CharacterizationStudy, "build_context", "study.build_context")
    for engine in (probe.BatchProbeEngine, fused.FusedProbeEngine):
        if "preheat" in vars(engine):
            wrap(engine, "preheat", "study.preheat")
    wrap(study, "rowhammer_wcdp", "wcdp.rowhammer")
    wrap(study, "retention_wcdp", "wcdp.retention")
    wrap(study, "trcd_wcdp", "wcdp.trcd")
    wrap(rowhammer, "characterize_rows", "rowhammer.characterize")
    wrap(rowhammer, "characterize_row", "rowhammer.characterize")
    wrap(retention, "characterize_rows", "retention.characterize")
    wrap(retention, "characterize_row", "retention.characterize")
    wrap(trcd, "characterize_row", "trcd.characterize")
    wrap(rng.RngHub, "standard_normals", "rng.normals")
    wrap(campaign, "run_parallel", "campaign.pool")
    wrap(campaign, "_build_shared_states", "campaign.shared_state")
    wrap(campaign, "merge_module_chunks", "campaign.merge")
    wrap(campaign, "_run_one_chunk", "campaign.unit")
    wrap(api_server, "run_job", "service.job",
         describe=lambda job, *rest, **kw: {"link": job.id})


def load_spans(out_dir: str) -> List[dict]:
    """Every span from the per-process files.

    A root span whose ``link`` argument names another span's ``anchor``
    is re-parented under it: an API server's job span then nests in
    the client-side span of the same job's run phase.
    """
    spans = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(out_dir, entry)) as handle:
                spans.extend(json.loads(line) for line in handle if line)
    anchors = {
        span["args"]["anchor"]: span["id"]
        for span in spans if "anchor" in span["args"]
    }
    for span in spans:
        link = span["args"].get("link")
        if span["parent"] is None and link in anchors:
            span["parent"] = anchors[link]
    return spans


def self_times(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per span name: total self seconds, total seconds and call count.

    Self time is a span's duration minus its direct children's.
    """
    children: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
    )
    for span in spans:
        duration = span["end"] - span["start"]
        row = table[span["name"]]
        row["self_s"] += (duration - children[span["id"]]) / 1e9
        row["total_s"] += duration / 1e9
        row["calls"] += 1
    return dict(table)


def timed_spans(spans: List[dict], owner_pid: int) -> List[dict]:
    """The spans of the timed work: every span of the benchmark
    process that descends from one of its ``bench.*`` timelines, and
    every span of the processes it drove (pool workers, API server).
    Output checks after the timed window drop out."""
    by_id = {span["id"]: span for span in spans}

    def root(span):
        while span["parent"] in by_id:
            span = by_id[span["parent"]]
        return span

    return [
        span for span in spans
        if span["pid"] != owner_pid
        or root(span)["name"].startswith(ROOT_PREFIX)
    ]


def coverage(spans: List[dict], owner_pid: int) -> Dict[str, float]:
    """Attribution of the benchmark process's ``bench.*`` timelines
    (the timed run, or each API client thread): their summed duration
    is the traced wall, and their own self time -- what no layer span
    explains -- is ``unattributed``."""
    owned = [span for span in spans if span["pid"] == owner_pid]
    roots = [span for span in owned if span["parent"] is None]
    wall = sum((span["end"] - span["start"]) / 1e9 for span in roots)
    unattributed = sum(
        row["self_s"] for name, row in self_times(owned).items()
        if name.startswith(ROOT_PREFIX)
    )
    return {
        "wall_s": wall,
        "unattributed_s": unattributed,
        "coverage": (wall - unattributed) / wall if wall else 0.0,
    }


def write_chrome_trace(spans: List[dict], path: str) -> None:
    """Write the spans as Chrome-trace JSON (complete ``X`` events)."""
    origin = min((span["start"] for span in spans), default=0)
    events = [
        {
            "name": span["name"], "ph": "X", "pid": span["pid"],
            "tid": span["tid"],
            "ts": (span["start"] - origin) / 1e3,
            "dur": (span["end"] - span["start"]) / 1e3,
            "args": span.get("args", {}),
        }
        for span in spans
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
