"""Answer oracles, process-tree accounting and the cleanup check."""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

_TICK = os.sysconf("SC_CLK_TCK")


# -- answers --------------------------------------------------------------

def check_answer(lines: np.ndarray, kind: str, payload,
                 result) -> Optional[str]:
    """``None`` if ``result`` is right for the probe, else what is wrong.

    Windows and points must equal the brute-force id sets; a nearest
    answer must name a segment at the brute-force minimum distance (ties
    may pick either segment).
    """
    from repro.baselines.brute import brute_point_query, brute_window_query
    from repro.geometry.distance import point_segment_distance
    from repro.structures.nearest import brute_nearest

    if kind == "window":
        want = brute_window_query(lines, payload)
    elif kind == "point":
        want = brute_point_query(lines, payload[0], payload[1])
    else:
        gid, dist = int(result[0]), float(result[1])
        _, best = brute_nearest(lines, payload[0], payload[1])
        if not 0 <= gid < len(lines):
            return f"nearest {payload}: id {gid} out of range"
        own = float(point_segment_distance(payload[0], payload[1],
                                           lines[gid:gid + 1])[0])
        if abs(dist - best) > 1e-9 * max(1.0, best) \
                or abs(own - best) > 1e-9 * max(1.0, best):
            return (f"nearest {payload}: got id {gid} at {dist}, "
                    f"brute force minimum is {best}")
        return None
    got = np.sort(np.asarray(result, dtype=np.int64))
    if not np.array_equal(got, np.sort(want)):
        return (f"{kind} {payload}: {len(got)} ids, brute force has "
                f"{len(want)}")
    return None


# -- process trees --------------------------------------------------------

def _stat(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # fields after the parenthesised command name (which may hold spaces)
    return raw[raw.rindex(")") + 2:].split()


def descendants(root: int) -> Set[int]:
    """``root`` and every live process below it."""
    parent: Dict[int, int] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat(int(name))
            if fields is not None:
                parent[int(name)] = int(fields[1])
    tree, frontier = {root}, [root]
    while frontier:
        pid = frontier.pop()
        kids = [p for p, pp in parent.items() if pp == pid and p not in tree]
        tree.update(kids)
        frontier.extend(kids)
    return tree


def cpu_seconds(pids: Iterable[int]) -> Dict[int, float]:
    """User + system CPU of each live pid, in seconds."""
    out = {}
    for pid in pids:
        fields = _stat(pid)
        if fields is not None:
            out[pid] = (int(fields[11]) + int(fields[12])) / _TICK
    return out


def alive(pid: int) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


# -- cleanup --------------------------------------------------------------

def leftovers(pids: Iterable[int], host_pid: int, tmpdir: str,
              journal_root: Optional[str], wait: float = 10.0) -> List[str]:
    """What a finished host left behind; kills stray processes it finds.

    Checks that every process seen under the host has exited, that no
    shared-memory block the host's arena named is still linked, that no
    arena session file remains, and that the journal directory is gone.
    """
    found = []
    deadline = time.monotonic() + wait
    stray = [p for p in pids if alive(p)]
    while stray and time.monotonic() < deadline:
        time.sleep(0.1)
        stray = [p for p in stray if alive(p)]
    for pid in stray:
        found.append(f"process {pid} still running")
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    if os.path.isdir("/dev/shm"):
        prefix = f"repro-{host_pid}-"
        found += [f"shm block {n}" for n in os.listdir("/dev/shm")
                  if n.startswith(prefix)]
    sessions = os.path.join(tmpdir, "repro-shm")
    if os.path.isdir(sessions):
        found += [f"arena session {n}" for n in os.listdir(sessions)]
    if journal_root and os.path.exists(journal_root):
        found.append(f"journal directory {journal_root}")
    return found
