"""Workload definitions and seeded input generation.

Every input the program sees is generated here from the benchmark's
``--seed``: segment maps, read schedules, bulk probe waves and writer
batches.  The same seed (and run length) gives the same inputs.  The
program itself never sees the seed.
"""

from __future__ import annotations

import numpy as np

DOMAIN = 1024          # every map lives in [0, DOMAIN]^2
N_SEGMENTS = 20_000
MIX = {"window": 0.6, "point": 0.2, "nearest": 0.2}

#: one entry per workload: its parameters and the reason it exists.
#: ``engine`` holds ``EngineConfig`` fields; ``server`` ``SpatialServer``
#: keyword arguments.
WORKLOADS = {
    "serve_reads": {
        "why": ("200 qps open loop of window/point/nearest reads (60/20/20, "
                "small windows), 20k uniform segs, PMR, thread x2, coalescer "
                "64/2ms: per-request fixed costs set latency"),
        "map": "uniform",
        "read_qps": 200.0,
        "connections": 2,
        "window_side": [8.0, 40.0],
        "engine": {"executor": "thread", "workers": 2, "structure": "pmr",
                   "shards": 1, "max_batch": 64, "max_wait": 0.002},
        "server": {"max_inflight": 1024, "client_inflight": 256},
    },
    "bulk_batches": {
        "why": ("in-process closed loop of one fixed 1024-probe wave (75% "
                "20x20 windows on dense clusters, 25% nearest; half PMR, "
                "half R-tree), 20k clustered segs, 1 thread: kernels "
                "dominate"),
        "map": "clustered",
        "wave": 1024,
        "window_side": [20.0, 20.0],
        "structures": ["pmr", "rtree"],
        "engine": {"executor": "thread", "workers": 1, "structure": "pmr",
                   "shards": 1, "max_batch": 1024, "max_wait": 60.0},
    },
    "read_write": {
        "why": ("50 qps open-loop reads beside a closed-loop writer (insert 8 "
                "/ delete 8), 20k uniform segs, shards=4, process x2, shm on, "
                "journal fsync=commit: the commit path"),
        "map": "uniform",
        "read_qps": 50.0,
        "connections": 2,
        "window_side": [8.0, 40.0],
        "writer_batch": 8,
        "insert_box": 16,
        "engine": {"executor": "process", "workers": 2, "structure": "pmr",
                   "shards": 4, "max_batch": 64, "max_wait": 0.002,
                   "journal_fsync": "commit"},
        "server": {"max_inflight": 1024, "client_inflight": 256},
    },
}

#: which end-to-end metric each per-layer metric should move, and where
#: (written down before measuring; see README.md)
LAYER_MAP = {
    "net": {"metrics": ["net.parse_us", "net.encode_us",
                        "net.bytes_out_per_req", "net.refused_frac"],
            "moves": {"serve_reads": ["read_p50_ms", "server_cpu_ms_per_req"]},
            "still": {"bulk_batches": "all"}},
    "engine": {"metrics": ["engine.probe_p50_ms", "engine.probe_p99_ms"],
               "moves": {"serve_reads": ["read_p50_ms", "read_p99_ms"],
                         "bulk_batches": ["probes_per_s"]}},
    "engine.coalescer": {"metrics": ["coalescer.wait_p50_ms",
                                     "coalescer.batch_size_mean"],
                         "moves": {"serve_reads": ["read_p50_ms"]}},
    "engine.executor": {"metrics": ["executor.queue_p50_ms",
                                    "executor.run_p50_ms",
                                    "executor.job_p50_ms",
                                    "executor.rejected",
                                    "executor.ipc_bytes_per_job"],
                        "moves": {"serve_reads": ["read_p99_ms"],
                                  "read_write": ["read_p99_ms"]}},
    "structures.batch": {"metrics": ["kernel.call_p50_ms",
                                     "kernel.us_per_probe",
                                     "kernel.probes_per_call",
                                     "kernel.results_per_probe",
                                     "kernel.steps_per_probe"],
                         "moves": {"bulk_batches": ["probes_per_s"],
                                   "serve_reads": ["read_p50_ms"]},
                         "guard": "kernel.steps_per_probe must not change"},
    "engine.registry": {"metrics": ["registry.stage_ms", "build.commit_ms",
                                    "build.steps_per_commit",
                                    "build.repaired_frac",
                                    "registry.hit_frac"],
                        "moves": {"read_write": ["commit_p50_ms",
                                                 "commits_per_s"],
                                  "all": ["setup_s"]}},
    "durability": {"metrics": ["journal.append_p50_ms",
                               "journal.bytes_per_commit",
                               "journal.fsyncs_per_commit"],
                   "moves": {"read_write": ["commit_p50_ms"]}},
    "shm": {"metrics": ["shm.publish_ms_per_commit", "shm.bytes_per_commit"],
            "moves": {"read_write": ["commit_p50_ms", "read_p50_ms"]}},
    "load": {"metrics": ["gen.late_p99_ms"],
               "moves": {}, "note": "validity: the run is invalid past "
                                     "the generator lateness bound"},
}


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per input stream of one seed."""
    tag = int.from_bytes(stream.encode()[:8].ljust(8, b"\0"), "little")
    return np.random.default_rng([int(seed), tag])


def _clip_segments(x1, y1, dx, dy) -> np.ndarray:
    x2 = np.clip(x1 + dx, 0, DOMAIN)
    y2 = np.clip(y1 + dy, 0, DOMAIN)
    out = np.column_stack([x1, y1, x2, y2]).astype(np.float64)
    flat = (out[:, 0] == out[:, 2]) & (out[:, 1] == out[:, 3])
    out[flat, 2] = np.where(out[flat, 0] < DOMAIN, out[flat, 0] + 1,
                            out[flat, 0] - 1)
    return out


def make_map(kind: str, seed: int) -> np.ndarray:
    """Integer-coordinate segments: ``uniform`` or ``clustered``."""
    rng = rng_for(seed, "map")
    n = N_SEGMENTS
    if kind == "uniform":
        x1 = rng.integers(0, DOMAIN + 1, n)
        y1 = rng.integers(0, DOMAIN + 1, n)
    else:
        # 16 clusters on a jittered 4x4 grid: dense, never overlapping,
        # so every seed has the same density profile
        grid = np.arange(4) * (DOMAIN // 4) + DOMAIN // 8
        centers = np.stack(np.meshgrid(grid, grid), -1).reshape(-1, 2)
        centers = centers + rng.integers(-32, 33, size=centers.shape)
        which = rng.integers(0, len(centers), n)
        x1 = np.clip(centers[which, 0] + rng.integers(-48, 49, n), 0, DOMAIN)
        y1 = np.clip(centers[which, 1] + rng.integers(-48, 49, n), 0, DOMAIN)
    dx = rng.integers(-32, 33, n)
    dy = rng.integers(-32, 33, n)
    return _clip_segments(x1, y1, dx, dy)


def _window(rng, lines: np.ndarray, side, anchor_on_data: bool) -> list:
    w, h = rng.uniform(side[0], side[1], 2)
    if anchor_on_data:
        seg = lines[rng.integers(0, len(lines))]
        cx, cy = (seg[0] + seg[2]) / 2, (seg[1] + seg[3]) / 2
    else:
        cx, cy = rng.uniform(0, DOMAIN, 2)
    x0 = float(np.clip(cx - w / 2, 0, DOMAIN - w))
    y0 = float(np.clip(cy - h / 2, 0, DOMAIN - h))
    return [x0, y0, x0 + float(w), y0 + float(h)]


def make_reads(spec: dict, lines: np.ndarray, seed: int, seconds: float,
               stream: str = "reads") -> list:
    """An open-loop read schedule: ``read_qps * seconds`` requests.

    Points are segment midpoints, so stabbing answers are non-empty;
    nearest probes are uniform over the domain.
    """
    rng = rng_for(seed, stream)
    count = max(1, int(round(spec["read_qps"] * seconds)))
    kinds = rng.choice(list(MIX), size=count, p=list(MIX.values()))
    reads = []
    for kind in kinds:
        if kind == "window":
            reads.append({"kind": "window",
                          "rect": _window(rng, lines, spec["window_side"],
                                          anchor_on_data=False)})
        elif kind == "point":
            seg = lines[rng.integers(0, len(lines))]
            reads.append({"kind": "point",
                          "point": [float((seg[0] + seg[2]) / 2),
                                    float((seg[1] + seg[3]) / 2)]})
        else:
            reads.append({"kind": "nearest",
                          "point": [float(v) for v in
                                    rng.uniform(0, DOMAIN, 2)]})
    return reads


def make_wave(spec: dict, lines: np.ndarray, seed: int) -> list:
    """The bulk workload's fixed wave: (structure, kind, payload) probes.

    Windows are anchored on data so they cover dense clusters; the
    same wave repeats for the whole run, so scan-model step counts
    repeat exactly.  Structures alternate and kinds follow a fixed
    pattern (three of every four probes per structure are windows),
    so every seed flushes the same four groups in the same order.
    """
    rng = rng_for(seed, "wave")
    per = len(spec["structures"])
    wave = []
    for i in range(spec["wave"]):
        structure = spec["structures"][i % per]
        if (i // per) % 4 != 3:      # three windows, then one nearest
            wave.append((structure, "window",
                         _window(rng, lines, spec["window_side"],
                                 anchor_on_data=True)))
        else:
            wave.append((structure, "nearest",
                         [float(v) for v in rng.uniform(0, DOMAIN, 2)]))
    return wave


def make_insert_batches(spec: dict, seed: int, count: int) -> list:
    """Localized insert batches: ``writer_batch`` segments in one small box."""
    rng = rng_for(seed, "writer")
    box = spec["insert_box"]
    batches = []
    for _ in range(count):
        bx, by = rng.integers(0, DOMAIN - 2 * box, 2)
        x1 = bx + rng.integers(0, box + 1, spec["writer_batch"])
        y1 = by + rng.integers(0, box + 1, spec["writer_batch"])
        dx = rng.integers(1, box // 2 + 1, spec["writer_batch"])
        dy = rng.integers(-(box // 2), box // 2 + 1, spec["writer_batch"])
        batches.append(_clip_segments(x1, y1, dx, dy).astype(int).tolist())
    return batches
