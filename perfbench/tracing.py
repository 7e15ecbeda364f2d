"""Outside-in tracing: spans around each layer's public entry points.

The wrappers are installed at run time, from benchmark code only, on
one live engine (and, for network workloads, on the wire codec of the
process hosting the server).  Nothing under ``src/`` knows about them.

A span is ``[name, start, end, parent, rid, counts]``:

* ``start``/``end`` are ``time.monotonic()`` seconds (the clock the
  engine stamps ``Probe.submitted_at`` with);
* ``parent`` is the id of the span that caused it, or ``"b<n>"`` for
  work done on behalf of coalesced batch ``n`` (every probe of that
  batch is its parent);
* ``rid`` is the wire request id (network workloads) or ``None``;
* ``counts`` holds the counters measured at the same boundary.

Spans are kept in memory while recording is on and written out once,
when the run ends.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from typing import Dict, List, Optional

from stats import PercentileLog

#: the wire request id of the frame being handled (set by the parse
#: wrapper; asyncio tasks created afterwards inherit it)
_RID: contextvars.ContextVar = contextvars.ContextVar("perfbench_rid",
                                                      default=None)

now = time.monotonic


class Tracer:
    """In-memory span recorder; thread-safe appends, off until ``start``."""

    def __init__(self):
        self.spans: List[list] = []
        self.recording = False
        self.local = threading.local()
        self._ids = itertools.count(1)
        self._batches = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, start: float, end: float, parent=None,
            rid=None, sid: Optional[int] = None, **counts) -> None:
        if self.recording:
            self.spans.append([sid or self.new_id(), name, start, end,
                               parent, rid, counts or None])

    def start(self) -> None:
        self.recording = True

    def stop(self) -> None:
        self.recording = False


# -- wrappers -------------------------------------------------------------

def install_net(tracer: Tracer) -> None:
    """Wrap ``protocol.parse_request`` and ``protocol.encode_frame``.

    The server module imported ``parse_request`` by name, so the
    wrapper replaces that binding; ``encode_frame`` is looked up in the
    protocol module by ``write_frame`` at call time.
    """
    from repro.net import protocol, server

    parse = server.parse_request
    encode = protocol.encode_frame

    def parse_request(obj):
        t0 = now()
        req = parse(obj)
        _RID.set(req["id"])
        tracer.add("net.parse", t0, now(), rid=req["id"])
        return req

    def encode_frame(obj):
        t0 = now()
        data = encode(obj)
        tracer.add("net.encode", t0, now(), rid=obj.get("id"),
                   bytes=len(data), status=obj.get("status"))
        return data

    server.parse_request = parse_request
    protocol.encode_frame = encode_frame


def install_engine(tracer: Tracer, engine) -> None:
    """Wrap the engine's layer boundaries (see the module docstring)."""
    import repro.engine.engine as engine_mod
    from repro.durability import journal as journal_mod

    local = tracer.local

    # engine: submit_* -> future resolved
    for kind in ("window", "point", "nearest"):
        submit = getattr(engine, f"submit_{kind}")

        def wrapped_submit(*args, _submit=submit, **kwargs):
            t0 = now()
            fut = _submit(*args, **kwargs)
            if not hasattr(fut, "_pb_span"):
                fut._pb_span = tracer.new_id()
            rid = _RID.get()

            def done(f, t0=t0, rid=rid):
                tracer.add("engine.probe", t0, now(), rid=rid,
                           sid=f._pb_span,
                           batch=getattr(f, "_pb_batch", None))
            fut.add_done_callback(done)
            return fut

        setattr(engine, f"submit_{kind}", wrapped_submit)

    # engine.coalescer: the flush callback receives the Probes
    coalescer = engine._coalescer
    flush_fn = coalescer._flush_fn

    def flush(key, probes):
        t0 = now()
        batch = f"b{next(tracer._batches)}"
        reads = key[0] not in ("mutate", "join")
        if reads:
            for p in probes:
                if not hasattr(p.future, "_pb_span"):
                    p.future._pb_span = tracer.new_id()
                p.future._pb_batch = batch
                tracer.add("coalescer.wait", p.submitted_at, t0,
                           parent=p.future._pb_span)
        local.batch = batch
        try:
            flush_fn(key, probes)
        finally:
            local.batch = None
            tracer.add("coalescer.flush", t0, now(), parent=batch,
                       **({"size": len(probes)} if reads else {}))

    coalescer._flush_fn = flush

    # engine.executor: BoundedExecutor.submit / ProcessBackend.submit
    executor = engine._executor
    submit_job = executor.submit

    def executor_submit(job):
        batch = getattr(local, "batch", None)
        t_sub = now()
        if callable(job):        # thread backend: fn(machine)
            run_id = tracer.new_id()

            def run(machine, _job=job):
                t_start = now()
                local.run = run_id
                try:
                    return _job(machine)
                finally:
                    local.run = None
                    tracer.add("executor.queue", t_sub, t_start, parent=batch)
                    tracer.add("executor.run", t_start, now(), parent=batch,
                               sid=run_id)
            return submit_job(run)
        fut = submit_job(job)
        fut.add_done_callback(lambda _f: tracer.add(
            "executor.job", t_sub, now(), parent=batch))
        return fut

    executor.submit = executor_submit

    # structures.batch: the callables engine.worker.batch_kernel returns
    # (the thread backend looks the factory up in the engine module)
    batch_kernel = engine_mod.batch_kernel

    def traced_batch_kernel(structure, kind, exact):
        fn = batch_kernel(structure, kind, exact)

        def kernel(tree, payloads, machine):
            s0 = machine.steps
            t0 = now()
            out = fn(tree, payloads, machine)
            t1 = now()
            results = (len(out) if kind == "nearest"
                       else sum(len(r) for r in out))
            tracer.add("kernel.call", t0, t1, parent=getattr(local, "run",
                                                             None),
                       probes=len(payloads), results=int(results),
                       steps=float(machine.steps - s0))
            return out
        return kernel

    engine_mod.batch_kernel = traced_batch_kernel

    # engine.registry + build, on the commit path
    run_batch = engine._run_mutation_batch

    def run_mutation_batch(root, probes):
        if not tracer.recording:
            return run_batch(root, probes)   # began outside the window
        t0 = now()
        sid = tracer.new_id()
        local.commit = sid
        try:
            return run_batch(root, probes)
        finally:
            local.commit = None
            tracer.add("build.mutation", t0, now(), sid=sid,
                       ops=len(probes))

    engine._run_mutation_batch = run_mutation_batch
    registry = engine.registry
    stage = registry.stage_version
    get = registry.get
    activate = registry.activate_version

    def stage_version(*args, **kwargs):
        t0 = now()
        info = stage(*args, **kwargs)
        if getattr(local, "commit", None):
            tracer.add("registry.stage", t0, now(), parent=local.commit)
        return info

    def registry_get(*args, **kwargs):
        t0 = now()
        entry = get(*args, **kwargs)
        if getattr(local, "commit", None):
            repaired = bool(entry.repair
                            and not entry.repair.get("full_rebuild"))
            tracer.add("build.get", t0, now(), parent=local.commit,
                       steps=float(entry.build_steps), repaired=repaired)
        return entry

    def activate_version(*args, **kwargs):
        t0 = now()
        info = activate(*args, **kwargs)
        if getattr(local, "commit", None):
            tracer.add("registry.activate", t0, now(), parent=local.commit)
        return info

    registry.stage_version = stage_version
    registry.get = registry_get
    registry.activate_version = activate_version

    # durability: MutationJournal.append (journals are created lazily,
    # so the class method is wrapped)
    append = journal_mod.MutationJournal.append

    def journal_append(self, **kwargs):
        b0, f0, t0 = self.bytes_appended, self.fsyncs, now()
        seq = append(self, **kwargs)
        if getattr(local, "commit", None):
            tracer.add("journal.append", t0, now(), parent=local.commit,
                       bytes=self.bytes_appended - b0,
                       fsyncs=self.fsyncs - f0)
        return seq

    journal_mod.MutationJournal.append = journal_append

    # shm: ShmArena.publish_payload / publish_array
    arena = engine._arena
    if arena is not None:
        for name in ("publish_payload", "publish_array"):
            publish = getattr(arena, name)

            def wrapped_publish(tag, *args, _publish=publish, **kwargs):
                fresh = arena.handle(tag) is None
                t0 = now()
                handle = _publish(tag, *args, **kwargs)
                nbytes = handle.nbytes if (fresh and handle is not None) \
                    else 0
                tracer.add("shm.publish", t0, now(),
                           parent=getattr(local, "commit", None),
                           bytes=int(nbytes))
                return handle

            setattr(arena, name, wrapped_publish)


def engine_counters(engine) -> Dict[str, float]:
    """Counters read at the window's edges (differences are reported)."""
    snap = engine.stats.snapshot()
    return {"registry_hits": engine.registry.hits,
            "registry_misses": engine.registry.misses,
            "rejected": snap["rejected_total"],
            "ipc_bytes": snap["ipc_bytes_sent"] + snap["ipc_bytes_received"],
            "ipc_jobs": snap["ipc_jobs"]}


# -- analysis -------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def layer_table(spans: List[list]) -> List[dict]:
    """Per span name: count, total and self time (minus covered children).

    Children of a span are the spans naming it as parent; a probe's
    children also include the work done for the batch it rode in.
    """
    children: Dict[object, list] = {}
    for sid, name, t0, t1, parent, rid, counts in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    rows: Dict[str, dict] = {}
    for sid, name, t0, t1, parent, rid, counts in spans:
        kids = list(children.get(sid, ()))
        batch = (counts or {}).get("batch")
        if batch is not None:
            kids += children.get(batch, ())
        dur = max(t1 - t0, 0.0)
        row = rows.setdefault(name, {"span": name, "count": 0,
                                     "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += dur * 1e3
        row["self_ms"] += (dur - _covered(t0, t1, kids)) * 1e3
    return sorted(rows.values(), key=lambda r: -r["self_ms"])


def per_layer_metrics(spans: List[list], counters: Dict[str, float],
                      late_p99_ms: float, log: PercentileLog
                      ) -> Dict[str, float]:
    """The per-layer metrics, from spans and counter differences.

    A layer with no spans in the window reports 0 for its metrics.
    """
    by: Dict[str, list] = {}
    for span in spans:
        by.setdefault(span[1], []).append(span)

    def durs(name: str, scale: float = 1e3) -> list:
        return [(s[3] - s[2]) * scale for s in by.get(name, ())]

    def counts(name: str, key: str) -> list:
        return [s[6][key] for s in by.get(name, ())
                if s[6] and key in s[6]]

    def pct(name: str, q: float) -> float:
        return log.percentile(name, durs(name), q)

    def mean(values: list) -> float:
        return _ratio(sum(values), len(values))

    statuses = counts("net.encode", "status")
    probes = sum(counts("kernel.call", "probes"))
    commits = len(by.get("build.mutation", ()))
    hits, misses = counters.get("registry_hits", 0), \
        counters.get("registry_misses", 0)
    return {
        "net.parse_us": mean(durs("net.parse", 1e6)),
        "net.encode_us": mean(durs("net.encode", 1e6)),
        "net.bytes_out_per_req": mean(counts("net.encode", "bytes")),
        "net.refused_frac": mean([s in (429, 503) for s in statuses]),
        "engine.probe_p50_ms": pct("engine.probe", 50),
        "engine.probe_p99_ms": pct("engine.probe", 99),
        "coalescer.wait_p50_ms": pct("coalescer.wait", 50),
        "coalescer.batch_size_mean": mean(counts("coalescer.flush", "size")),
        "executor.queue_p50_ms": pct("executor.queue", 50),
        "executor.run_p50_ms": pct("executor.run", 50),
        "executor.job_p50_ms": pct("executor.job", 50),
        "executor.rejected": float(counters.get("rejected", 0)),
        "executor.ipc_bytes_per_job": _ratio(counters.get("ipc_bytes", 0),
                                             counters.get("ipc_jobs", 0)),
        "kernel.call_p50_ms": pct("kernel.call", 50),
        "kernel.us_per_probe": _ratio(sum(durs("kernel.call", 1e6)), probes),
        "kernel.probes_per_call": mean(counts("kernel.call", "probes")),
        "kernel.results_per_probe": _ratio(
            sum(counts("kernel.call", "results")), probes),
        "kernel.steps_per_probe": _ratio(sum(counts("kernel.call", "steps")),
                                         probes),
        "registry.stage_ms": _ratio(sum(durs("registry.stage")), commits),
        "build.commit_ms": _ratio(sum(durs("build.get")), commits),
        "build.steps_per_commit": _ratio(sum(counts("build.get", "steps")),
                                         commits),
        "build.repaired_frac": mean(counts("build.get", "repaired")),
        "registry.hit_frac": _ratio(hits, hits + misses),
        "journal.append_p50_ms": pct("journal.append", 50),
        "journal.bytes_per_commit": _ratio(
            sum(counts("journal.append", "bytes")), commits),
        "journal.fsyncs_per_commit": _ratio(
            sum(counts("journal.append", "fsyncs")), commits),
        "shm.publish_ms_per_commit": _ratio(sum(durs("shm.publish")),
                                            commits),
        "shm.bytes_per_commit": _ratio(sum(counts("shm.publish", "bytes")),
                                       commits),
        "gen.late_p99_ms": late_p99_ms,
    }
