"""Single-process asyncio load generator: open-loop reads, closed-loop writer.

At most two TCP connections.  Reads leave on a fixed schedule whether
or not earlier ones were answered (an open loop), and each read is
timed from when it was *due*, so a stall shows in every read queued
behind it.  How late the generator itself ran is measured too.  The
writer waits for each ack before sending its next operation (a closed
loop) and is timed from send to ack.

The framing (4-byte big-endian length + JSON object) is written here
rather than imported, so the client's cost does not change when the
program's codec does.
"""

from __future__ import annotations

import asyncio
import gc
import json
import struct
from typing import Callable, Dict, List, Optional

_HEADER = struct.Struct(">I")


def _frame(obj: dict) -> bytes:
    payload = json.dumps(obj, separators=(",", ":")).encode()
    return _HEADER.pack(len(payload)) + payload


class Connection:
    """One pipelined connection; responses are matched by request id."""

    def __init__(self, reader, writer, loop):
        self.reader = reader
        self.writer = writer
        self.loop = loop
        self.pending: Dict[int, asyncio.Future] = {}
        self.task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                head = await self.reader.readexactly(_HEADER.size)
                (n,) = _HEADER.unpack(head)
                resp = json.loads(await self.reader.readexactly(n))
                at = self.loop.time()
                fut = self.pending.pop(resp.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result((at, resp))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            for fut in self.pending.values():
                if not fut.done():
                    fut.set_result((self.loop.time(), None))

    def send(self, req: dict) -> asyncio.Future:
        fut = self.loop.create_future()
        self.pending[req["id"]] = fut
        self.writer.write(_frame(req))
        return fut

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


async def run_load(host: str, port: int, fingerprint: str,
                   warmup: List[dict], reads: List[dict], qps: float,
                   connections: int, grace: float,
                   writer_ops: Optional[Callable[[int], dict]] = None,
                   on_window: Optional[Callable[[str], None]] = None) -> dict:
    """Drive one measurement window; returns raw per-operation samples.

    ``warmup`` then ``reads`` are sent at ``qps`` on one schedule, spread
    round-robin over the read connections; only ``reads`` are measured,
    so lazy set-up and cold caches settle before the window opens.
    With ``writer_ops`` one connection is reserved for the closed-loop
    writer: ``writer_ops(i)`` returns the ``i``-th operation; it starts
    with the warm-up, stops when the schedule ends, and every write is
    returned (``measured`` marks those sent inside the window).
    ``on_window`` is called (off the event loop) with ``"start"`` and
    ``"end"`` at the window's edges; the end comes after the last answer
    or after ``grace`` seconds of waiting for it.  The generator's own
    garbage collector is off meanwhile, so its pauses do not show as
    server latency.  Connections are closed before this returns.
    """
    loop = asyncio.get_running_loop()
    conns = []
    for _ in range(connections):
        reader, writer = await asyncio.open_connection(host, port)
        conns.append(Connection(reader, writer, loop))
    read_conns = conns[1:] if writer_ops is not None else conns
    out = {"reads": [], "writes": [], "late": [], "elapsed_s": 0.0,
           "writer_s": 0.0}
    next_id = iter(range(1, 1 << 62))
    schedule = warmup + reads
    t0 = loop.time() + 0.05
    start = t0 + len(warmup) / qps
    end = t0 + len(schedule) / qps

    async def read_one(req: dict, due: float, conn: Connection) -> None:
        sent = loop.time()
        msg = dict(req, id=next(next_id), fingerprint=fingerprint)
        answered, resp = await conn.send(msg)
        if due >= start:
            out["late"].append(sent - due)
            out["reads"].append({"req": req, "due": due - start,
                                 "latency": answered - due, "resp": resp})
            out["elapsed_s"] = max(out["elapsed_s"], answered - start)

    async def write_loop(conn: Connection) -> None:
        i = 0
        while loop.time() < end:
            op = writer_ops(i)
            msg = dict(op, id=next(next_id), fingerprint=fingerprint)
            sent = loop.time()
            record = {"op": op, "measured": sent >= start, "resp": None}
            out["writes"].append(record)
            answered, record["resp"] = await conn.send(msg)
            record["latency"] = answered - sent
            if record["measured"]:
                out["writer_s"] = answered - start
            i += 1

    gc.collect()
    gc.disable()
    try:
        tasks = []
        writer_task = (asyncio.ensure_future(write_loop(conns[0]))
                       if writer_ops is not None else None)
        for i, req in enumerate(schedule):
            if i == len(warmup) and on_window:
                await loop.run_in_executor(None, on_window, "start")
            due = t0 + i / qps
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(
                read_one(req, due, read_conns[i % len(read_conns)])))
            if i % 64 == 0:
                for c in read_conns:
                    await c.writer.drain()
        pending = tasks + ([writer_task] if writer_task else [])
        _, late = await asyncio.wait(pending, timeout=grace)
        for task in late:
            task.cancel()
        if late:
            await asyncio.gather(*late, return_exceptions=True)
        if on_window:
            await loop.run_in_executor(None, on_window, "end")
    finally:
        gc.enable()
        for conn in conns:
            await conn.close()
    return out
