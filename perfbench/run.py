"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_reads --seed 1 \\
        --seconds 20 --trace 0

Workloads and their reasons are in ``workloads.py`` (and
``BENCHMARK.json``).  ``--trace 0`` measures the end-to-end metrics
with no instrumentation.  ``--trace 1`` runs the workload twice, first
untraced and then with spans around every layer's entry points, and
reports the per-layer metrics plus the tracing overhead (traced minus
untraced end-to-end numbers).

Answers are checked against brute-force oracles; a wrong answer, a
percentile without ten samples beyond it, a generator that ran late, or
anything left behind (processes, shared-memory blocks, journal
directories) makes the run exit nonzero without a result.  Otherwise
the last line of stdout is the JSON result; a readable report goes to
stderr and a full run record to ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import checks
from load import run_load
from stats import PercentileLog
from workloads import DOMAIN, LAYER_MAP, WORKLOADS, make_insert_batches, \
    make_map, make_reads, make_wave, rng_for

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 3      # set-ups per untraced run; setup_s is their median
LATE_BOUND_MS = 25.0   # generator p99 lateness above this invalidates a run
WARMUP_S = 3.0         # unmeasured load first: caches fill, lazy set-up ends
GRACE_S = 20.0         # wait for answers after the schedule ends
SAMPLED_CHECKS = 200   # answers checked against the oracles per run


class RunFailed(Exception):
    """The run is invalid: it must exit nonzero and report no metrics."""


# -- helpers ---------------------------------------------------------------

def _tmpdir(tag: str) -> str:
    path = os.path.join(OUT, "tmp", f"{os.getpid()}-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _git_commit() -> Optional[str]:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None   # not a git checkout


def _mirror(metrics: Dict[str, float]) -> None:
    """Fill the commit metrics of a workload without a writer from its reads.

    Every end-to-end metric is reported on every workload; where a
    workload has no commits, ``commit_*`` describe its reads instead
    (the rule is recorded in README.md).
    """
    metrics["commit_p50_ms"] = metrics["read_p50_ms"]
    metrics["commits_per_s"] = metrics["probes_per_s"]


def _sampled(count: int, seed: int) -> set:
    rng = rng_for(seed, "checks")
    k = min(SAMPLED_CHECKS, count)
    return set(rng.choice(count, size=k, replace=False).tolist())


# -- network workloads -----------------------------------------------------

class Host:
    """The child process hosting engine + server (``host.py``)."""

    def __init__(self, spec: dict, tmpdir: str):
        env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=tmpdir)
        spec_path = os.path.join(tmpdir, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "host.py"), spec_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 150)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.proc.kill()
            self.proc.wait()
            raise RunFailed(f"host failed to start: {line.strip()!r}")
        self.ready = json.loads(line[6:])
        self.seen = set()

    def send(self, cmd: str) -> None:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()

    def stop(self) -> None:
        self.seen |= checks.descendants(self.proc.pid)
        try:
            out, _ = self.proc.communicate("STOP\n", timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RunFailed("host did not exit within 60 s of STOP")
        if out.strip() != "DONE" or self.proc.returncode != 0:
            raise RunFailed(f"host exited with code {self.proc.returncode}")


def run_network(name: str, seed: int, seconds: float, trace: bool,
                repeats: int) -> dict:
    spec = WORKLOADS[name]
    tmpdir = _tmpdir(f"{name}-{int(trace)}")
    lines = make_map(spec["map"], seed)
    np.save(os.path.join(tmpdir, "lines.npy"), lines)
    warmup = make_reads(spec, lines, seed, WARMUP_S, stream="warmup")
    reads = make_reads(spec, lines, seed, seconds)
    writer = "writer_batch" in spec
    journal_root = os.path.join(tmpdir, "journal") if writer else None
    host = Host({"engine": spec["engine"], "server": spec["server"],
                 "lines_path": os.path.join(tmpdir, "lines.npy"),
                 "domain": DOMAIN, "setup_repeats": repeats, "trace": trace,
                 "journal_root": journal_root,
                 "result_path": os.path.join(tmpdir, "result.json")},
                tmpdir)
    n = len(lines)
    batch = spec.get("writer_batch", 0)
    inserts = make_insert_batches(spec, seed, 4096) if writer else []

    def writer_op(i: int) -> dict:
        # odd commits insert a fresh localized batch; even commits delete
        # the rows just below the newest batch (the previous batch, or on
        # the first delete the base map's last rows), so every version's
        # content is new and the size alternates n + batch, n
        if i % 2 == 0:
            return {"kind": "insert",
                    "lines": inserts[(i // 2) % len(inserts)]}
        return {"kind": "delete", "ids": list(range(n - batch, n))}

    cpu_at = {}

    def on_window(edge: str) -> None:
        if edge == "start":
            host.send("GO")
        pids = checks.descendants(host.proc.pid)
        host.seen |= pids
        cpu_at[edge] = checks.cpu_seconds(pids)

    try:
        raw = asyncio.run(run_load(
            "127.0.0.1", host.ready["port"], host.ready["fingerprint"],
            warmup, reads, spec["read_qps"], spec["connections"], GRACE_S,
            writer_ops=writer_op if writer else None, on_window=on_window))
    finally:
        if host.proc.poll() is None:
            host.stop()
        else:
            raise RunFailed(f"host exited during the run with code "
                            f"{host.proc.returncode}")
    left = checks.leftovers(host.seen, host.proc.pid, tmpdir, journal_root)
    with open(os.path.join(tmpdir, "result.json")) as fh:
        hosted = json.load(fh)
    shutil.rmtree(tmpdir, ignore_errors=True)

    cpu = sum(t - cpu_at["start"].get(p, 0.0)
              for p, t in cpu_at["end"].items())

    log = PercentileLog()
    problems: List[str] = []
    ok_reads = [r for r in raw["reads"]
                if r["resp"] is not None and r["resp"].get("status") == 200]
    writes = [w for w in raw["writes"] if w["measured"]]
    ok_writes = [w for w in writes
                 if w["resp"] is not None and w["resp"].get("status") == 200]
    attempted = len(reads) + len(writes)
    failed = attempted - len(ok_reads) - len(ok_writes)
    reads_ms = [r["latency"] * 1e3 for r in ok_reads]
    elapsed = raw["elapsed_s"]
    m = {"setup_s": statistics.median(host.ready["setup_s"]),
         "read_p50_ms": log.percentile("read", reads_ms, 50),
         "server_cpu_ms_per_req": cpu * 1e3 / max(len(ok_reads)
                                                  + len(ok_writes), 1),
         "probes_per_s": len(ok_reads) / elapsed}
    m["wave_p50_ms"] = m["read_p50_ms"]
    if writer:
        commits_ms = [w["latency"] * 1e3 for w in ok_writes]
        m["commit_p50_ms"] = log.percentile("commit", commits_ms, 50)
        m["commits_per_s"] = len(ok_writes) / raw["writer_s"]
        problems += _check_versions(lines, raw, batch, seed)
    else:
        _mirror(m)
        picks = _sampled(len(raw["reads"]), seed)
        for i, r in enumerate(raw["reads"]):
            if i in picks and r["resp"] is not None \
                    and r["resp"].get("status") == 200:
                problems += _check_read(lines, r)
    info = {"read_p99_ms": log.percentile("read", reads_ms, 99)}
    late_ms = [x * 1e3 for x in raw["late"]]
    late_p99 = log.percentile("gen.late", late_ms, 99)
    if late_p99 > LATE_BOUND_MS:
        problems.append(f"generator ran late: p99 {late_p99:.1f} ms "
                        f"> {LATE_BOUND_MS} ms")
    out = {"metrics": m, "log": log, "problems": problems,
           "leftovers": left, "attempted": attempted, "failed": failed,
           "setups_s": host.ready["setup_s"], "late_p99_ms": late_p99,
           "info": info, "hosted": hosted}
    return out


def _check_read(lines: np.ndarray, r: dict) -> List[str]:
    req = r["req"]
    payload = req.get("rect") or req.get("point")
    err = checks.check_answer(lines, req["kind"], payload, r["resp"]["result"])
    return [err] if err else []


def _check_versions(base: np.ndarray, raw: dict, batch: int,
                    seed: int) -> List[str]:
    """Writer acks chain version by version; sampled reads match the
    content of the version they echo (replayed from the writer's log)."""
    problems = []
    n = len(base)
    for i, w in enumerate(raw["writes"]):
        resp = w["resp"]
        want_n = n + batch if i % 2 == 0 else n
        if resp is None or resp.get("status") != 200:
            return [f"writer op {i} got {resp and resp.get('status')}"]
        if resp.get("version") != i + 1 \
                or resp["result"]["num_lines"] != want_n:
            return [f"writer op {i}: version {resp.get('version')} with "
                    f"{resp['result']['num_lines']} lines, expected "
                    f"version {i + 1} with {want_n}"]
    picks = _sampled(len(raw["reads"]), seed)
    wanted: Dict[int, list] = {}
    for i, r in enumerate(raw["reads"]):
        if i in picks and r["resp"] is not None \
                and r["resp"].get("status") == 200:
            wanted.setdefault(int(r["resp"]["version"]), []).append(r)
    content = base
    for version in range(len(raw["writes"]) + 1):
        if version:
            op = raw["writes"][version - 1]["op"]
            if op["kind"] == "insert":
                content = np.vstack([content,
                                     np.asarray(op["lines"], np.float64)])
            else:
                keep = np.ones(len(content), dtype=bool)
                keep[op["ids"]] = False
                content = content[keep]
        for r in wanted.pop(version, ()):
            problems += _check_read(content, r)
    problems += [f"read echoed unknown version {v}" for v in wanted]
    return problems


# -- in-process workload ---------------------------------------------------

def run_bulk(name: str, seed: int, seconds: float, trace: bool,
             repeats: int) -> dict:
    from repro.engine import SpatialQueryEngine

    spec = WORKLOADS[name]
    lines = make_map(spec["map"], seed)
    wave = make_wave(spec, lines, seed)
    setups = []
    for attempt in range(repeats):
        t0 = time.perf_counter()
        engine = SpatialQueryEngine(**spec["engine"])
        fp = engine.register(lines, domain=DOMAIN)
        for structure in spec["structures"]:
            engine.warm(fp, structure)
        setups.append(time.perf_counter() - t0)
        if attempt + 1 < repeats:
            engine.close()
    submit = {"window": engine.submit_window,
              "nearest": engine.submit_nearest}

    def one_wave():
        """Submit the whole wave, flush, wait; per-probe answer times."""
        done_at = [0.0] * len(wave)
        t0 = time.monotonic()
        futs = []
        for i, (structure, kind, payload) in enumerate(wave):
            fut = submit[kind](fp, payload, structure=structure)
            fut.add_done_callback(
                lambda _f, i=i: done_at.__setitem__(i, time.monotonic()))
            futs.append(fut)
        engine.flush()
        results = [f.result(timeout=120) for f in futs]
        return t0, time.monotonic(), done_at, results

    tracer = None
    counters = {}
    picks = sorted(_sampled(len(wave), seed))
    reads_ms, waves_ms, answers = [], [], []
    probes = 0
    try:
        warm_until = time.monotonic() + WARMUP_S
        while time.monotonic() < warm_until:
            one_wave()
        if trace:
            from tracing import Tracer, engine_counters, install_engine
            tracer = Tracer()
            install_engine(tracer, engine)
            submit = {"window": engine.submit_window,
                      "nearest": engine.submit_nearest}
            counters["start"] = engine_counters(engine)
            tracer.start()
        cpu0 = time.process_time()
        start = time.monotonic()
        while time.monotonic() < start + seconds:
            t0, t1, done_at, results = one_wave()
            waves_ms.append((t1 - t0) * 1e3)
            reads_ms += [(t - t0) * 1e3 for t in done_at]
            probes += len(wave)
            answers.append([results[i] for i in picks])
        elapsed = time.monotonic() - start
        cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.stop()
            counters["end"] = engine_counters(engine)
        engine.close()

    log = PercentileLog()
    m = {"setup_s": statistics.median(setups),
         "read_p50_ms": log.percentile("read", reads_ms, 50),
         "server_cpu_ms_per_req": cpu * 1e3 / probes,
         "probes_per_s": probes / elapsed,
         "wave_p50_ms": log.percentile("wave", waves_ms, 50)}
    _mirror(m)
    info = {"read_p99_ms": log.percentile("read", reads_ms, 99)}
    problems = []
    for j, i in enumerate(picks):
        structure, kind, payload = wave[i]
        first = answers[0][j]
        err = checks.check_answer(lines, kind, payload, first)
        if err:
            problems.append(f"{structure} {err}")
        for later in answers[1:]:
            same = (later[j] == first if kind == "nearest"
                    else np.array_equal(later[j], first))
            if not same:
                problems.append(f"{structure} {kind} {payload}: answer "
                                f"changed between waves")
                break
    left = [f"process {p} still running"
            for p in checks.descendants(os.getpid()) - {os.getpid()}
            if checks.alive(p)]
    return {"metrics": m, "log": log, "problems": problems,
            "leftovers": left, "attempted": probes, "failed": 0,
            "setups_s": setups, "late_p99_ms": 0.0, "info": info,
            "hosted": {"spans": tracer.spans if tracer else [],
                       "counters": counters}}


# -- reporting -------------------------------------------------------------

def _layers(result: dict) -> Dict[str, float]:
    from tracing import per_layer_metrics

    counters = result["hosted"]["counters"]
    delta = {k: counters["end"][k] - counters["start"][k]
             for k in counters.get("end", {})}
    return per_layer_metrics(result["hosted"]["spans"], delta,
                             result["late_p99_ms"], result["log"])


def _record(args, result: dict, extra: dict) -> str:
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    spec = WORKLOADS[args.workload]
    record = {
        "args": {"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace},
        "workload": spec, "layer_map": LAYER_MAP,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__, "commit": _git_commit(),
                "setup_repeats": SETUP_REPEATS,
                "late_bound_ms": LATE_BOUND_MS},
        "metrics": result["metrics"], "unbounded": result["info"],
        "percentiles": result["log"].records,
        "attempted": result["attempted"], "failed": result["failed"],
        "failed_frac": result["failed"] / max(result["attempted"], 1),
        "setups_s": result["setups_s"], "problems": result["problems"],
        "leftovers": result["leftovers"], **extra}
    path = os.path.join(OUT, "runs", f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
                        f"-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return path


def _declared() -> Dict[str, Dict[str, str]]:
    """Metric names and units, per kind, as ``BENCHMARK.json`` lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def _trace_report(args, base: dict, result: dict,
                  e2e_units: Dict[str, str]) -> dict:
    """Per-layer metrics, the self-time table and the tracing overhead."""
    from tracing import layer_table

    spans = result["hosted"]["spans"]
    table = layer_table(spans)
    overhead = {k: result["metrics"][k] - base["metrics"][k]
                for k in result["metrics"]}
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    trace_path = os.path.join(OUT, "traces", f"{args.workload}-seed"
                              f"{args.seed}-{os.getpid()}.json")
    with open(trace_path, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "rid",
                              "counts"], "spans": spans}, fh)
    err = sys.stderr
    print("  span                       count     total_ms      self_ms",
          file=err)
    for row in table:
        print(f"  {row['span']:24s} {row['count']:7d} {row['total_ms']:12.1f}"
              f" {row['self_ms']:12.1f}", file=err)
    print("  tracing overhead (traced - untraced):", file=err)
    for k, v in overhead.items():
        print(f"    {k:26s} {v:+12.4f} {e2e_units.get(k, '')}", file=err)
    return {"layer_table": table, "untraced": base["metrics"],
            "traced": result["metrics"], "trace_overhead": overhead,
            "trace_path": os.path.relpath(trace_path, ROOT)}


def _report(result: dict, units: Dict[str, str]) -> None:
    err = sys.stderr
    for name, value in result["metrics"].items():
        print(f"  {name:28s} {value:14.4f} {units.get(name, '')}", file=err)
    for r in result["log"].records:
        print(f"  p{r['q']:g} of {r['name']}: n={r['n']}, "
              f"beyond={r['beyond']}", file=err)
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / max(result['attempted'], 1):.4g}",
          file=err)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing "
              f"(run from the repository root)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    declared = _declared()
    run = run_bulk if args.workload == "bulk_batches" else run_network
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", file=sys.stderr)
    try:
        if args.trace:
            base = run(args.workload, args.seed, args.seconds, False, 1)
            result = run(args.workload, args.seed, args.seconds, True, 1)
            result["log"].records += base["log"].records
            result["problems"] += base["problems"]
            result["leftovers"] += base["leftovers"]
        else:
            result = run(args.workload, args.seed, args.seconds, False,
                         SETUP_REPEATS)
    except RunFailed as exc:
        print(f"perfbench: run invalid: {exc}", file=sys.stderr)
        return 1
    extra = {}
    units = declared["end_to_end"]
    if args.trace:
        extra = _trace_report(args, base, result, units)
        result["metrics"] = _layers(result)
        units = declared["per_layer"]
    if set(result["metrics"]) != set(units):
        result["problems"].append(
            f"measured metrics {sorted(result['metrics'])} differ from "
            f"BENCHMARK.json's {sorted(units)}")
    result["problems"] += [f"percentile p{r['q']:g} of {r['name']} has only "
                           f"{r['beyond']} of {r['n']} samples beyond it"
                           for r in result["log"].unsupported()]
    path = os.path.relpath(_record(args, result, extra), ROOT)
    bad = result["problems"] + result["leftovers"]
    if bad:
        for item in bad[:20]:
            print(f"perfbench: FAIL {item}", file=sys.stderr)
        print(f"perfbench: no result; details in {path}", file=sys.stderr)
        return 1
    _report(result, units)
    print(f"  record: {path}", file=sys.stderr)
    print(json.dumps({
        "correct": True, "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": float(result["metrics"][k]), "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
