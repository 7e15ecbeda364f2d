"""Host one engine behind a ``ServerThread`` for a network workload.

Run as ``python3 perfbench/host.py SPEC.json`` by ``run.py``, with
``PYTHONPATH`` pointing at the checkout's ``src``.  It

1. sets up ``setup_repeats`` times (engine construction, ``register``
   of the generated map, ``warm``, server listening), timing each and
   tearing all but the last down again;
2. with ``trace`` on, installs the tracing wrappers on the live engine
   and the wire codec of this process;
3. prints ``READY <json>`` and obeys ``GO`` / ``STOP`` lines on stdin
   (the measurement window's edges);
4. on ``STOP`` stops the server, closes the engine, removes its journal
   directory, writes spans and counters to ``result_path`` and exits.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import numpy as np


def _setup(spec: dict, lines: np.ndarray, attempt: int):
    from repro.engine import SpatialQueryEngine
    from repro.net.server import ServerThread

    config = dict(spec["engine"])
    if spec.get("journal_root"):
        config["journal_dir"] = os.path.join(spec["journal_root"],
                                             f"setup-{attempt}")
    t0 = time.perf_counter()
    engine = SpatialQueryEngine(**config)
    fingerprint = engine.register(lines, domain=spec["domain"])
    engine.warm(fingerprint)
    server = ServerThread(engine, **spec["server"])
    return engine, server, fingerprint, time.perf_counter() - t0


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    lines = np.load(spec["lines_path"])
    setups = []
    for attempt in range(spec["setup_repeats"]):
        engine, server, fingerprint, took = _setup(spec, lines, attempt)
        setups.append(took)
        if attempt + 1 < spec["setup_repeats"]:
            server.stop()
            engine.close()
    tracer = None
    if spec["trace"]:
        from tracing import (Tracer, engine_counters, install_engine,
                             install_net)
        tracer = Tracer()
        install_net(tracer)
        install_engine(tracer, engine)
    print("READY " + json.dumps({"port": server.port,
                                 "fingerprint": fingerprint,
                                 "setup_s": setups}), flush=True)
    counters = {}
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "GO" and tracer is not None:
            counters["start"] = engine_counters(engine)
            tracer.start()
        elif cmd == "STOP":
            break
    if tracer is not None:
        tracer.stop()
        counters["end"] = engine_counters(engine)
    server.stop()
    engine.close()
    if spec.get("journal_root"):
        shutil.rmtree(spec["journal_root"], ignore_errors=True)
    with open(spec["result_path"], "w") as fh:
        json.dump({"spans": tracer.spans if tracer else [],
                   "counters": counters}, fh)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
