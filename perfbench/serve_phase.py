"""Serving phase: a ``repro serve --artifact`` child driven over HTTP.

The fitted model is saved as an artifact and served by a real gateway
process, exactly as ``repro serve --artifact model.npz --port 0`` runs it.
Test-split sessions are replayed as a script: every micro-behavior is a
``POST /events`` and a ``GET /recommend?k=20`` follows each macro step;
some recommends repeat with no new event, so the score cache answers
them.

Two connections carry the script. Each session is pinned to one
connection, so its requests stay in order. The open-loop phase sends at a
fixed rate and times every request from when it was due, so a stall is
charged to the requests queued behind it. The closed-loop phase then
sends back to back on the same two connections for capacity.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import pathlib
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.data.dataset import collate
from repro.eval.topk import top_k_indices
from repro.serve import RecommenderService

from common import median, pctl

K = 20
CONNECTIONS = 2
OPEN_RATE_RPS = 100.0  # offered rate of the open-loop phase, both connections together
REPEAT_PROB = 0.43      # 0.43 / 1.43 = 30% of recommends repeat with no new event
ACTIVE_SESSIONS = 8     # sessions interleaved per connection
WARMUP_REQUESTS = 60    # per connection, before any timing
PROBE_SESSIONS = 8
LIVE_SESSIONS = 32      # sessions fed to the in-process service for layer timings
BOOTS = 3               # gateway boots per run; set-up reports their median
BOOT_TIMEOUT_S = 60.0
TIMED_CALL_S = 0.3      # per in-process call kind

SERVING_TRACK = (19, "serving")
INPROC_TRACK = (30, "in-process serve")


@dataclass(frozen=True)
class Request:
    kind: str           # "event" | "recommend"
    session_id: str
    item: int = 0
    operation: int = 0
    repeat: bool = False  # a recommend with no event since the last one


@dataclass
class Record:
    conn: int
    index: int
    phase: str
    request: Request
    due: float
    start: float
    end: float
    status: int          # 0 = transport error
    source: str = ""
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.degraded


# ------------------------------------------------------------------ script
def test_sessions(packed) -> list[tuple[list[int], list[list[int]]]]:
    """Test-split sessions as (raw item ids, raw operation ids)."""
    vocab = packed.vocab
    return [
        ([vocab.decode(i) for i in ex.macro_items], [list(o) for o in ex.op_sequences])
        for ex in packed.test
    ]


def _session_plan(session, session_id: str, rng: random.Random) -> list[Request]:
    items, op_sequences = session
    plan = []
    for item, ops in zip(items, op_sequences):
        plan.extend(Request("event", session_id, item, op) for op in ops)
        plan.append(Request("recommend", session_id))
        if rng.random() < REPEAT_PROB:
            plan.append(Request("recommend", session_id, repeat=True))
    return plan


def connection_script(sessions, conn: int, seed: int):
    """Endless request stream of one connection, a function of ``seed``.

    The connection owns every ``CONNECTIONS``-th session and interleaves
    ``ACTIVE_SESSIONS`` of them at random; once all are replayed, the next
    lap replays them under fresh session ids.
    """
    rng = random.Random(seed * CONNECTIONS + conn)
    mine = sessions[conn::CONNECTIONS]
    for lap in itertools.count():
        pending = deque(range(len(mine)))
        active: list = []
        while pending or active:
            while pending and len(active) < ACTIVE_SESSIONS:
                i = pending.popleft()
                active.append(iter(_session_plan(mine[i], f"c{conn}-l{lap}-s{i}", rng)))
            j = rng.randrange(len(active))
            request = next(active[j], None)
            if request is None:
                active.pop(j)
            else:
                yield request


# ------------------------------------------------------------------ client
class Client:
    """One keep-alive connection; validates every response it reads."""

    def __init__(self, host: str, port: int, problems: list[str]):
        self.host, self.port = host, port
        self.problems = problems
        self.conn = http.client.HTTPConnection(host, port, timeout=10.0)

    def close(self) -> None:
        self.conn.close()

    def call(self, request: Request) -> tuple[int, dict | None]:
        try:
            if request.kind == "event":
                body = json.dumps({
                    "session_id": request.session_id,
                    "item": request.item,
                    "operation": request.operation,
                })
                self.conn.request("POST", "/events", body=body,
                                  headers={"Content-Type": "application/json"})
            else:
                self.conn.request("GET", f"/recommend?session_id={request.session_id}&k={K}")
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=10.0)
            return 0, None
        if response.status != 200:
            return response.status, None
        payload = json.loads(raw)
        if request.kind == "event" and payload.get("applied") is not True:
            self.problems.append(f"event not applied: {request}")
        if request.kind == "recommend" and len(payload.get("items", ())) != K:
            self.problems.append(
                f"recommend for {request.session_id} returned "
                f"{len(payload.get('items', ()))} items, expected {K}"
            )
        return 200, payload

    def run(self, conn: int, phase: str, script, records: list[Record],
            began: float, until: float, period: float | None = None, offset: float = 0.0,
            limit: int | None = None) -> None:
        """Send from ``script`` until ``until`` (or ``limit`` requests).

        With ``period`` the loop is open: request ``i`` is due at
        ``began + offset + i * period`` whether or not earlier ones are
        done. Without it, each request is due when the previous returns.
        """
        for index in itertools.count():
            if limit is not None and index >= limit:
                return
            if period is not None:
                due = began + offset + index * period
                if due >= until:
                    return
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            else:
                due = time.perf_counter()
                if due >= until:
                    return
            request = next(script)
            start = time.perf_counter()
            status, payload = self.call(request)
            end = time.perf_counter()
            payload = payload or {}
            records.append(Record(
                conn, index, phase, request, due, start, end, status,
                source=payload.get("source", ""), degraded=bool(payload.get("degraded", False)),
            ))


def _drive(host, port, scripts, phase, until, problems, period=None, limit=None):
    """Run every connection's loop in its own thread; collect the records."""
    records: list[Record] = []
    clients = [Client(host, port, problems) for _ in scripts]
    errors: list[Exception] = []
    began = time.perf_counter()

    def work(conn: int) -> None:
        try:
            offset = conn * period / len(scripts) if period is not None else 0.0
            clients[conn].run(conn, phase, scripts[conn], records, began, until, period,
                              offset, limit)
        except Exception as error:  # re-raised on the main thread below
            errors.append(error)

    threads = [threading.Thread(target=work, args=(c,), daemon=True) for c in range(len(scripts))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(until - time.perf_counter(), 0.0) + 30.0)
    for client in clients:
        client.close()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"{phase} phase: a connection thread did not finish")
    if errors:
        raise errors[0]
    return records


# ------------------------------------------------------------------ gateway
class Gateway:
    """A ``repro serve --artifact`` child process on an ephemeral port."""

    def __init__(self, root: pathlib.Path, artifact: pathlib.Path, log_path: pathlib.Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self.log_path = log_path
        started = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--artifact", str(artifact),
                 "--port", "0"],
                stdout=log, stderr=subprocess.STDOUT, cwd=root, env=env,
            )
        try:
            self.host, self.port = self._wait_for_address(started)
            self._wait_for_health(started)
        except BaseException:
            self.stop()
            raise
        self.boot_seconds = time.perf_counter() - started

    def _wait_for_address(self, started: float) -> tuple[str, int]:
        pattern = re.compile(r"serving \S+ on http://([\d.]+):(\d+)")
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            match = pattern.search(self.log_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(f"gateway exited while booting:\n{self.log_path.read_text()}")
            time.sleep(0.005)
        raise RuntimeError("gateway did not print its address in time")

    def _wait_for_health(self, started: float) -> None:
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5.0)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except (OSError, http.client.HTTPException):
                time.sleep(0.005)
            finally:
                conn.close()
        raise RuntimeError("gateway /healthz did not answer in time")

    def metrics(self) -> dict[str, float]:
        """``GET /metrics`` as ``{sample name with labels: value}``."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10.0)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        out = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                out[name] = float(value)
        return out

    def peak_rss_mb(self) -> float:
        """The child's ``VmHWM`` (peak resident set) in MiB."""
        for line in pathlib.Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)  # `repro serve` shuts down cleanly on ^C
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def boot(root, artifact, workdir) -> tuple[Gateway, list[float]]:
    """Boot the gateway ``BOOTS`` times; keep the last one running."""
    boots = []
    for index in range(BOOTS):
        gateway = Gateway(root, artifact, workdir / f"gateway-{index}.log")
        boots.append(gateway.boot_seconds)
        if index < BOOTS - 1:
            gateway.stop()
    return gateway, boots


# ------------------------------------------------------------------ checks
def probe_check(gateway: Gateway, sessions, artifact, problems: list[str]):
    """Model-sourced top-K over HTTP must equal an in-process service's.

    Both sides boot from the same artifact and get the same events; the
    probes go one at a time, so the gateway scores each at batch size 1
    like the in-process ``top_k`` does. Returns the in-process service.
    """
    service = RecommenderService.from_artifact(artifact, retrieval="auto")
    client = Client(gateway.host, gateway.port, problems)
    try:
        for index, (items, op_sequences) in enumerate(sessions[:PROBE_SESSIONS]):
            session_id = f"probe-{index}"
            for item, ops in zip(items, op_sequences):
                for op in ops:
                    client.call(Request("event", session_id, item, op))
                    service.record(session_id, item, op)
            status, payload = client.call(Request("recommend", session_id))
            if status != 200 or payload.get("source") != "model":
                problems.append(f"probe {session_id}: status {status}, source "
                                f"{(payload or {}).get('source')!r}, expected a model answer")
                continue
            expected = service.top_k(session_id, k=K)
            if payload["items"] != expected:
                problems.append(f"probe {session_id}: HTTP top-{K} {payload['items']} "
                                f"!= in-process {expected}")
    finally:
        client.close()
    return service


def _timed(fn, args: list, spans, name: str) -> float:
    """Median milliseconds of ``fn(arg)`` cycling over ``args``."""
    times = []
    began = time.perf_counter()
    for arg in itertools.cycle(args):
        start = time.perf_counter()
        fn(arg)
        end = time.perf_counter()
        times.append((end - start) * 1e3)
        if end - began >= TIMED_CALL_S and len(times) >= len(args):
            break
    if spans is not None:
        spans.add(name, INPROC_TRACK, began, end, calls=len(times), median_ms=median(times))
    return median(times)


def in_process_layers(service: RecommenderService, sessions, spans) -> dict:
    """Direct timed calls on the live sessions the gateway served."""
    ids = []
    for index, (items, op_sequences) in enumerate(sessions[:LIVE_SESSIONS]):
        session_id = f"live-{index}"
        for item, ops in zip(items, op_sequences):
            for op in ops:
                service.record(session_id, item, op)
        ids.append(session_id)
    examples = [service.session(s).to_example(service.max_macro_len) for s in ids]
    batches = [collate([example]) for example in examples]
    recommender = service.recommender
    scores = [recommender.score_batch(batch) for batch in batches]
    return {
        "serve.top_k_b1_ms": _timed(lambda s: service.top_k_batch([s], k=K), ids, spans, "top_k_batch b1"),
        "serve.top_k_b2_ms": _timed(
            lambda pair: service.top_k_batch(list(pair), k=K),
            list(zip(ids[0::2], ids[1::2])), spans, "top_k_batch b2"),
        "data.collate_serve_ms": _timed(lambda ex: collate([ex]), examples, spans, "collate"),
        "eval.score_batch_ms": _timed(recommender.score_batch, batches, spans, "score_batch"),
        "eval.topk_ms": _timed(lambda s: top_k_indices(s, K), scores, spans, "top_k_indices"),
    }


# ------------------------------------------------------------------ phase
def _bucket_p50(before: dict, after: dict, name: str) -> float:
    """Median of a /metrics histogram over the interval between two scrapes."""
    bounds, counts = [], []
    pattern = re.compile(re.escape(name) + r'_bucket\{le="([^"]+)"\}')
    for key, value in after.items():
        match = pattern.fullmatch(key)
        if match and match.group(1) != "+Inf":
            bounds.append(float(match.group(1)))
            counts.append(value - before.get(key, 0.0))
    order = sorted(range(len(bounds)), key=bounds.__getitem__)
    total = after.get(f"{name}_count", 0.0) - before.get(f"{name}_count", 0.0)
    if total <= 0:
        return 0.0
    rank, previous, lo = 0.5 * total, 0.0, 0.0
    for i in order:
        if counts[i] >= rank:
            return lo + (bounds[i] - lo) * (rank - previous) / (counts[i] - previous)
        previous, lo = counts[i], bounds[i]
    return lo


def _delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def run(root, artifact, packed, seed, open_seconds, closed_seconds, trace, spans, workdir):
    """Boot, warm up, run both phases, check, and measure every layer."""
    sessions = test_sessions(packed)
    scripts = [connection_script(sessions, c, seed) for c in range(CONNECTIONS)]
    problems: list[str] = []
    gateway, boots = boot(root, artifact, workdir)
    try:
        host, port = gateway.host, gateway.port
        _drive(host, port, scripts, "warmup", time.perf_counter() + 60.0, problems,
               limit=WARMUP_REQUESTS)
        m0 = gateway.metrics()
        open_started = time.perf_counter()
        open_records = _drive(host, port, scripts, "open", open_started + open_seconds,
                              problems, period=CONNECTIONS / OPEN_RATE_RPS)
        open_ended = time.perf_counter()
        m1 = gateway.metrics()
        closed_started = time.perf_counter()
        closed_records = _drive(host, port, scripts, "closed",
                                closed_started + closed_seconds, problems)
        closed_ended = time.perf_counter()
        m2 = gateway.metrics()
        service = probe_check(gateway, sessions, artifact, problems)
        rss_mb = gateway.peak_rss_mb()
    finally:
        gateway.stop()

    def latencies(kind, source=None):
        return [(r.end - r.due) * 1e3 for r in open_records
                if r.request.kind == kind and (source is None or r.source == source)]

    rec_ms, event_ms = latencies("recommend"), latencies("event")
    closed_ok = sum(r.ok for r in closed_records)
    closed_span = (max((r.end for r in closed_records), default=closed_ended) - closed_started)
    records = open_records + closed_records
    sent = len(records)
    recommends = [r for r in records if r.request.kind == "recommend"]
    values = {
        "peak_rss_mb": rss_mb,
        "recommend_p50_ms": median(rec_ms),
        "event_p50_ms": median(event_ms),
        "ok_frac": sum(r.ok for r in records) / max(sent, 1),
    }
    samples = {
        "peak_rss_mb": 1, "recommend_p50_ms": len(rec_ms), "event_p50_ms": len(event_ms),
        "ok_frac": sent,
    }

    hit_ms = latencies("recommend", source="cache")
    miss_ms = latencies("recommend", source="model")
    lag_ms = [(r.start - r.due) * 1e3 for r in open_records]
    hits, misses = _delta(m0, m1, "cache_hits_total"), _delta(m0, m1, "cache_misses_total")
    batches = _delta(m0, m1, "batcher_batch_size_count")
    layers = {
        "serving.recommend_p90_ms": pctl(rec_ms, 90),
        "serving.event_p90_ms": pctl(event_ms, 90),
        "serving.capacity_rps": closed_ok / closed_span,
        "serving.recommend_hit_p50_ms": median(hit_ms),
        "serving.recommend_miss_p50_ms": median(miss_ms),
        "serving.gateway.latency_p50_ms": _bucket_p50(m0, m1, "request_latency_ms"),
        "serving.cache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "serving.batcher.batch_size_mean":
            _delta(m0, m1, "batcher_batch_size_sum") / batches if batches else 0.0,
        "serving.batcher.flushes": _delta(m0, m1, "batcher_flushes_total"),
        "serving.gen.lag_p99_ms": pctl(lag_ms, 99),
        "serving.status_429": sum(r.status == 429 for r in records),
        "serving.status_504": sum(r.status == 504 for r in records),
        "serving.degraded": sum(r.degraded for r in records),
        "serving.breaker_open_total": m2.get("breaker_open_total", 0.0),
        "serving.scoring_retries_total": m2.get("scoring_retries_total", 0.0),
        "serving.event_per_recommend":
            sum(r.request.kind == "event" for r in records) / max(len(recommends), 1),
        "serving.repeat_recommend_frac":
            sum(r.request.repeat for r in recommends) / max(len(recommends), 1),
        "serving.open.sent": len(open_records),
        "serving.open.failed": sum(not r.ok for r in open_records),
        "serving.closed.sent": len(closed_records),
        "serving.closed.failed": sum(not r.ok for r in closed_records),
    }
    if trace:
        layers.update(in_process_layers(service, sessions, spans))
        layers["serving.batcher.window_ms"] = (
            layers["serving.recommend_miss_p50_ms"] - layers["serving.recommend_hit_p50_ms"]
            - layers["serve.top_k_b1_ms"]
        )
        open_id = spans.add("open-loop phase", SERVING_TRACK, open_started, open_ended,
                            rate_rps=OPEN_RATE_RPS)
        closed_id = spans.add("closed-loop phase", SERVING_TRACK, closed_started, closed_ended)
        for r in records:
            spans.add(
                f"{r.request.kind}", (20 + r.conn, f"connection {r.conn}"), r.start, r.end,
                open_id if r.phase == "open" else closed_id,
                request_id=f"{r.phase}-{r.conn}-{r.index}", session=r.request.session_id,
                status=r.status, source=r.source, lag_ms=round((r.start - r.due) * 1e3, 3),
            )

    report = {
        "boot_seconds": boots,
        "phases": {
            name: {
                "sent": len(rs),
                "ok": sum(r.ok for r in rs),
                "failed": sum(not r.ok for r in rs),
                "lag_p99_ms": pctl([(r.start - r.due) * 1e3 for r in rs], 99),
                "seconds": span,
            }
            for name, rs, span in (
                ("open", open_records, open_ended - open_started),
                ("closed", closed_records, closed_span),
            )
        },
        "quantiles_ms": {
            kind: {q: round(pctl(ms, q), 3) for q in (50, 75, 90, 95, 98, 99)}
            for kind, ms in (("recommend", rec_ms), ("event", event_ms))
        },
        "hit_samples": len(hit_ms),
        "miss_samples": len(miss_ms),
    }
    return values, samples, layers, report, median(boots), problems, sent
