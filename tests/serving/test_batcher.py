"""Deterministic tests for the micro-batching scheduler."""

import threading
import time

import pytest

from repro.serving import DeadlineExceededError, MetricsRegistry, MicroBatcher, QueueFullError


class StubService:
    """Records every top_k_batch call; ranks are the session id repeated."""

    def __init__(self, delay_s: float = 0.0):
        self.calls: list[tuple[tuple[str, ...], int, bool]] = []
        self.delay_s = delay_s

    def top_k_batch(self, session_ids, k=10, exclude_seen=False):
        if self.delay_s:
            time.sleep(self.delay_s)
        self.calls.append((tuple(session_ids), k, exclude_seen))
        return {sid: [hash(sid) % 97] * k for sid in session_ids}


class GatedService(StubService):
    """A model call that blocks until ``gate`` is set; ``entered`` marks each call."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def top_k_batch(self, session_ids, k=10, exclude_seen=False):
        self.entered.set()
        assert self.gate.wait(10.0), "test never opened the gate"
        return super().top_k_batch(session_ids, k, exclude_seen)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def record_gets(batcher, on_timed_get=None):
    """Record ``(block, timeout)`` of every queue ``get`` the batcher makes."""
    gets = []
    original = batcher._queue.get

    def recording_get(block=True, timeout=None):
        gets.append((block, timeout))
        if on_timed_get is not None and block and timeout is not None:
            on_timed_get()
        return original(block, timeout)

    batcher._queue.get = recording_get
    return gets


class TestFlushSynchronous:
    """Drive _collect/flush by hand — no worker thread, no timing races."""

    def test_size_triggered_single_flush(self):
        stub = StubService()
        batcher = MicroBatcher(stub, max_batch_size=3)
        futures = [batcher.submit(f"s{i}", k=4) for i in range(3)]
        batch = batcher._collect()  # 3 queued >= max_batch_size: returns without waiting
        assert len(batch) == 3
        batcher.flush(batch)
        assert [f.result(0) for f in futures] == [[hash(f"s{i}") % 97] * 4 for i in range(3)]
        assert stub.calls == [(("s0", "s1", "s2"), 4, False)]

    def test_groups_by_request_shape(self):
        stub = StubService()
        batcher = MicroBatcher(stub, max_batch_size=3)
        batcher.submit("a", k=2)
        batcher.submit("b", k=2)
        batcher.submit("c", k=5, exclude_seen=True)
        batcher.flush(batcher._collect())
        assert sorted(stub.calls) == [(("a", "b"), 2, False), (("c",), 5, True)]

    def test_expired_requests_never_scored(self):
        stub = StubService()
        batcher = MicroBatcher(stub, max_batch_size=2)
        dead = batcher.submit("dead", deadline_s=-0.001)  # already expired
        live = batcher.submit("live")
        batcher.flush(batcher._collect())
        with pytest.raises(DeadlineExceededError):
            dead.result(0)
        assert live.result(0)
        assert stub.calls == [(("live",), 10, False)]

    def test_scoring_error_propagates_to_waiters(self):
        class Exploding:
            def top_k_batch(self, session_ids, k=10, exclude_seen=False):
                raise RuntimeError("model fell over")

        batcher = MicroBatcher(Exploding(), max_batch_size=2)
        future = batcher.submit("s")
        batcher.flush(batcher._collect())
        with pytest.raises(RuntimeError, match="fell over"):
            future.result(0)


class TestBackpressure:
    def test_queue_full_sheds(self):
        batcher = MicroBatcher(StubService(), max_queue_depth=2)  # worker not started
        batcher.submit("a")
        batcher.submit("b")
        with pytest.raises(QueueFullError):
            batcher.submit("c")


class TestThreaded:
    """The real worker thread, end to end."""

    def test_size_triggered_flush(self):
        stub = StubService()
        batcher = MicroBatcher(stub, max_batch_size=4)
        futures = [batcher.submit(f"s{i}") for i in range(4)]  # queued before the worker runs
        batcher.start()
        try:
            results = [f.result(timeout=5.0) for f in futures]
            assert all(len(r) == 10 for r in results)
            # One flush of exactly max_batch_size.
            assert len(stub.calls) == 1
            assert len(stub.calls[0][0]) == 4
        finally:
            batcher.stop()

    def test_concurrent_submitters_coalesce(self):
        stub = StubService(delay_s=0.01)
        batcher = MicroBatcher(stub, max_batch_size=8).start()
        try:
            results = {}

            def one(i):
                results[i] = batcher.submit(f"s{i}").result(timeout=5.0)

            threads = [threading.Thread(target=one, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 16
            scored = sum(len(call[0]) for call in stub.calls)
            assert scored == 16
            assert len(stub.calls) < 16  # coalescing actually happened
        finally:
            batcher.stop()

    def test_metrics_reported(self):
        registry = MetricsRegistry()
        batcher = MicroBatcher(StubService(), max_batch_size=2, registry=registry)
        batcher.submit("a")
        batcher.submit("b")
        batcher.flush(batcher._collect())
        snap = registry.snapshot()
        assert snap["batcher_flushes_total"] == 1
        assert snap["batcher_requests_total"] == 2
        assert snap["batcher_batch_size"]["count"] == 1
        assert snap["batcher_queue_wait_ms"]["count"] == 2  # one per request
        assert snap["batcher_score_ms"]["count"] == 1  # one per flush


class TestCollectPolicy:
    """The work-conserving gather: wait only for company the last flush saw."""

    def test_lone_request_makes_no_timed_wait(self):
        batcher = MicroBatcher(StubService(), max_batch_size=8)
        batcher.submit("warm")
        batcher.flush(batcher._collect())  # the previous flush held one request
        gets = record_gets(batcher)
        future = batcher.submit("lone")
        batch = batcher._collect()
        assert [r.session_id for r in batch] == ["lone"]
        assert [g for g in gets if g[0] and g[1] is not None] == []
        batcher.flush(batch)
        assert future.result(0)

    def test_mid_flush_arrivals_scored_together(self):
        stub = GatedService()
        batcher = MicroBatcher(stub, max_batch_size=8).start()
        try:
            first = batcher.submit("a")
            assert stub.entered.wait(5.0)
            rest = [batcher.submit(sid) for sid in ("b", "c", "d")]  # the scorer is busy
            stub.gate.set()
            assert first.result(timeout=5.0)
            assert all(f.result(timeout=5.0) for f in rest)
            assert [call[0] for call in stub.calls] == [("a",), ("b", "c", "d")]
        finally:
            batcher.stop()

    def test_wait_bounded_by_previous_flush(self):
        registry = MetricsRegistry()
        batcher = MicroBatcher(StubService(delay_s=0.2), max_batch_size=8, registry=registry)
        for sid in ("a", "b", "c"):
            batcher.submit(sid)
        batcher.flush(batcher._collect())  # a flush of 3 that took >= 200 ms
        score_s = registry.snapshot()["batcher_score_ms"]["sum"] / 1000.0
        assert score_s >= 0.2

        # Three queued: the gather has its 3 and stops without waiting out the budget.
        for sid in ("d", "e", "f"):
            batcher.submit(sid)
        started = time.monotonic()
        assert len(batcher._collect()) == 3
        assert time.monotonic() - started < score_s / 2

        # One queued, one arriving during the wait: the gather waits for the
        # third no longer than the previous flush's model call took.
        arrivals = iter(["y"])
        gets = record_gets(batcher, lambda: [batcher.submit(sid) for sid in arrivals])
        batcher.submit("x")
        batch = batcher._collect()
        assert [r.session_id for r in batch] == ["x", "y"]
        timed = [timeout for block, timeout in gets if block and timeout is not None]
        assert timed and max(timed) <= score_s


class TestShutdown:
    def test_stop_on_full_queue_returns_within_timeout(self):
        stub = GatedService()
        batcher = MicroBatcher(stub, max_batch_size=1, max_queue_depth=2).start()
        worker = batcher._thread
        # Frees the scorer eventually, so a stop() that blocks cannot hang the suite.
        release = threading.Timer(3.0, stub.gate.set)
        release.start()
        try:
            batcher.submit("busy")
            assert stub.entered.wait(5.0)
            batcher.submit("a")
            batcher.submit("b")  # the queue is now full
            started = time.monotonic()
            batcher.stop(timeout=0.5)
            assert time.monotonic() - started < 0.5 + 0.25
        finally:
            stub.gate.set()
            release.cancel()
            worker.join(5.0)
        assert not worker.is_alive()

    def test_sentinel_mid_gather_flushes_and_exits_without_put(self):
        stub = GatedService()
        batcher = MicroBatcher(stub, max_batch_size=8).start()
        worker = batcher._thread
        putters = []
        original_put = batcher._queue.put

        def recording_put(item, block=True, timeout=None):
            putters.append(threading.current_thread())
            return original_put(item, block, timeout)

        batcher._queue.put = recording_put
        first = batcher.submit("x")
        assert stub.entered.wait(5.0)
        rest = [batcher.submit(sid) for sid in ("a", "b")]
        stopper = threading.Thread(target=batcher.stop)
        stopper.start()
        wait_until(lambda: batcher.queue_depth == 3)  # a, b, then the stop sentinel
        stub.gate.set()
        stopper.join(5.0)
        worker.join(5.0)
        assert not worker.is_alive()
        assert first.result(0) and all(f.result(0) for f in rest)
        assert [call[0] for call in stub.calls] == [("x",), ("a", "b")]
        assert worker not in putters

    def test_restart_after_timed_out_stop_keeps_one_scorer(self):
        stub = GatedService()
        batcher = MicroBatcher(stub, max_batch_size=8).start()
        old_worker = batcher._thread
        batcher.submit("slow")
        assert stub.entered.wait(5.0)
        batcher.stop(timeout=0.05)  # times out: the old worker is mid-call
        batcher.start()
        try:
            stub.gate.set()
            old_worker.join(5.0)
            assert not old_worker.is_alive()
            assert batcher.submit("after").result(timeout=5.0)
        finally:
            batcher.stop()
