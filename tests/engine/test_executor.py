"""BoundedExecutor backpressure and shutdown semantics (satellite)."""

import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from functools import partial

import pytest

from repro.engine import BoundedExecutor, RejectedError
from repro.engine.registry import IndexRegistry
from repro.engine.worker import (InProcessState, IndexRef, JobSpec,
                                 batch_kernel, execute)
from repro.errors import EngineError
from repro.geometry import random_segments
from repro.resilience import FaultPlan, FaultSpec, InjectedFault
from repro.resilience.faults import FaultInjector


def park_worker(ex, release):
    """Occupy the single worker so queued jobs cannot drain."""
    started = threading.Event()

    def block(machine):
        started.set()
        release.wait(10)
        return "unblocked"

    fut = ex.submit(block)
    assert started.wait(5)
    return fut


class TestBackpressure:
    def test_saturated_queue_rejects_with_machine_readable_reason(self):
        release = threading.Event()
        ex = BoundedExecutor(workers=1, queue_depth=2)
        try:
            parked = park_worker(ex, release)
            # the queue takes exactly queue_depth jobs ...
            queued = [ex.submit(lambda m: m.steps) for _ in range(2)]
            # ... and the next submit is refused, not buffered
            with pytest.raises(RejectedError) as ei:
                ex.submit(lambda m: None)
            assert ei.value.reason == "queue_full"
            assert "queue full" in str(ei.value)
            assert isinstance(ei.value, EngineError)
            assert ex.queue_depth == 2
        finally:
            release.set()
            ex.shutdown()
        assert parked.result(5) == "unblocked"
        for f in queued:
            assert f.result(5) == 0.0      # fresh machine per job

    def test_queue_drains_after_release(self):
        release = threading.Event()
        ex = BoundedExecutor(workers=1, queue_depth=1)
        try:
            park_worker(ex, release)
            ex.submit(lambda m: 1)
            with pytest.raises(RejectedError):
                ex.submit(lambda m: 2)
            release.set()
            # the queue drains: capacity becomes available again
            done = threading.Event()
            deadline = threading.Event()
            for _ in range(50):
                try:
                    fut = ex.submit(lambda m: done.set())
                    break
                except RejectedError:
                    deadline.wait(0.01)
            else:
                pytest.fail("queue never drained")
            fut.result(5)
            assert done.is_set()
        finally:
            release.set()
            ex.shutdown()

    def test_shutdown_rejects_with_shutdown_reason(self):
        ex = BoundedExecutor(workers=1, queue_depth=1)
        ex.shutdown()
        with pytest.raises(RejectedError) as ei:
            ex.submit(lambda m: None)
        assert ei.value.reason == "shutdown"

    def test_job_errors_flow_through_the_future(self):
        ex = BoundedExecutor(workers=1, queue_depth=4)
        try:
            fut = ex.submit(lambda m: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                fut.result(5)
        finally:
            ex.shutdown()

    def test_cancelled_job_is_skipped_by_the_worker(self):
        release = threading.Event()
        ex = BoundedExecutor(workers=1, queue_depth=2)
        ran = threading.Event()
        try:
            park_worker(ex, release)
            doomed = ex.submit(lambda m: ran.set())
            assert doomed.cancel()         # still queued: cancellable
            release.set()
            after = ex.submit(lambda m: "after")
            assert after.result(5) == "after"
            assert not ran.is_set()        # the worker skipped it
        finally:
            release.set()
            ex.shutdown()


class TestInjection:
    def test_injected_job_fault_propagates_through_future(self):
        """The executor.job site fires inside the shared job body
        (worker.execute), so on the thread backend an injected fault
        surfaces through the job's future like any job error."""
        inj = FaultInjector(FaultPlan(specs=(
            FaultSpec(site="executor.job", kind="error", times=1),)))
        registry = IndexRegistry()
        lines = random_segments(20, 64, 16, seed=1)
        fp = registry.register(lines, domain=64)
        state = InProcessState(registry, inj, kernel=batch_kernel)
        spec = JobSpec(op="brute", kind="point",
                       index=IndexRef(fp, "pmr", (), 64),
                       payloads=lines[:3, :2].copy())
        ex = BoundedExecutor(workers=1, queue_depth=4)
        try:
            fut = ex.submit(partial(execute, state, spec))
            with pytest.raises(InjectedFault):
                fut.result(5)
            # budget spent: the same job now runs to its answer
            res = ex.submit(partial(execute, state, spec)).result(5)
            assert len(res.values) == 3
            assert all(len(v) >= 1 for v in res.values)
        finally:
            ex.shutdown()


class TestEngineTimeoutAccounting:
    def test_timeouts_and_rejections_are_counted(self):
        """Engine-level view: a saturated pool surfaces as RejectedError
        reasons and record_timeout() counts, never as silent queueing."""
        from repro.engine import SpatialQueryEngine

        release = threading.Event()
        lines = random_segments(60, 256, 32, seed=3)
        with SpatialQueryEngine(workers=1, queue_depth=1, max_batch=2,
                                max_wait=0.001, retry_attempts=1) as eng:
            fp = eng.register(lines, domain=256)
            eng.warm(fp)
            started = threading.Event()

            def park(machine):
                started.set()
                release.wait(10)

            try:
                eng._executor.submit(park)
                assert started.wait(5)             # worker is busy now
                # a probe that never resolves in time is a counted
                # timeout, and its future is cancelled while queued
                with pytest.raises(FutureTimeoutError):
                    eng.window(fp, [0, 0, 60, 60], timeout=0.05)
                # that cancelled batch still occupies the depth-1 queue,
                # so the next dispatched batch is rejected outright
                futs = [eng.submit_window(fp, [0, 0, 50, 50])
                        for _ in range(2)]
                eng.flush()
                with pytest.raises(RejectedError) as ei:
                    futs[0].result(5)
                assert ei.value.reason == "queue_full"
            finally:
                release.set()
            snap = eng.snapshot()
            assert snap["rejected"].get("queue_full", 0) >= 2
            assert snap["timeouts"] == 1
            assert snap["cancels"] >= 1


class TestSubmitFromWorker:
    def test_full_queue_runs_a_callback_job_on_the_worker(self):
        """A job submitted from a pool worker (a done callback's brute
        re-serve) that finds the queue full runs on that worker: a nap
        there would stall the only thread that drains the queue."""
        from repro.baselines.brute import brute_point_query
        from repro.engine import SpatialQueryEngine

        lines = random_segments(60, 256, 32, seed=3)
        with SpatialQueryEngine(workers=1, queue_depth=1,
                                retry_attempts=3) as eng:
            fp = eng.register(lines, domain=256)
            probes = lines[:4, :2].copy()
            spec = JobSpec(op="brute", kind="point",
                           index=eng._index_ref(eng._index_key(fp, None)),
                           payloads=probes)
            release = threading.Event()

            def on_worker(machine):
                eng._executor.submit(lambda m: release.wait(5))  # fills it
                try:
                    return eng._submit_spec(spec).result(0)
                finally:
                    release.set()

            wr = eng._executor.submit(on_worker).result(5)
            for (x, y), got in zip(probes, wr.values):
                assert list(got) == list(brute_point_query(lines, x, y))
            assert eng.stats.snapshot()["retries_total"] == 0
