"""``serve_sessions``: design sessions over HTTP against a server in its
own process.

Every session runs: create -> K seeded xRQ elicits (POST), each followed
by a ``status`` or ``design`` read -> one DELETE of an elicited
requirement -> ``deploy`` on the ``sql`` platform, synchronous or (a
seeded share) in the background, polled until its job is done.

Two phases, both from this one process with at most ``CLIENTS``
threads, each holding one keep-alive connection:

* open loop: sessions arrive at OFFERED_RATE per second, below
  capacity.  A session's latency, and that of its first request, is
  timed from the moment it was due, so a stalled server also delays
  the sessions queued behind it; how late the generator ran is
  reported separately;
* closed loop: ``CLIENTS`` clients run sessions back to back, which
  measures capacity in sessions per second.

Every response must carry its expected status, and each session's
deployed SQL script must equal the script an embedded session builds
from the same requirements (checked after the timed phases).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.services.session import DesignSession
from repro.sources import tpch
from repro.xformats import xrq

from benchmarks._workloads import requirement_corpus
from common import Clock, median_setup, percentile, report_latencies, Result
from layers import print_layers

HERE = os.path.dirname(os.path.abspath(__file__))

#: Client threads and connections: the host's two cores.
CLIENTS = 2
#: Open-loop session arrivals per second (below measured capacity).
OFFERED_RATE = 2.0
#: Share of the run spent in the open loop; the rest is closed loop.
OPEN_SHARE = 0.7
#: xRQ requirements a session draws its elicits from.
POOL = 12
ELICITS = (2, 3)
BACKGROUND_SHARE = 0.25
#: Seconds between polls of a background deploy job.
POLL_INTERVAL = 0.005

METRICS = {
    "op_p50_ms": ("serve.session_p50_ms", "session", 0.5),
    "op_p90_ms": ("serve.session_p90_ms", "session", 0.9),
    "aux1_ms": ("serve.request_p50_ms", "request", 0.5),
    "aux2_ms": ("serve.request_p99_ms", "request", 0.99),
    "aux3_ms": ("serve.elicit_p50_ms", "elicit", 0.5),
}


class Server:
    """The server process: started, commanded over stdin, stopped."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_process.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=30)
            raise RuntimeError("server process exited before listening")
        self.port = json.loads(line)["port"]

    def command(self, command: str) -> Optional[dict]:
        """Send one command; every command but ``quit`` is answered."""
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        if command == "quit":
            return None
        return json.loads(self.process.stdout.readline())

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.command("quit")
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdin.close()
        self.process.stdout.close()


class Client:
    """One keep-alive connection; every request is logged on ``log``."""

    def __init__(self, port: int, log: "Log") -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=60
        )
        self.log = log

    def request(
        self, method: str, path: str, body=None, expect=200, since=None,
        kind: str = "request",
    ) -> dict:
        """Send one request; ``since`` backdates its latency to when it
        was due.  A wrong status is a failed operation."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        sent = time.perf_counter()
        self.connection.request(method, path, body=data, headers=headers)
        response = self.connection.getresponse()
        payload = json.loads(response.read() or b"{}")
        ended = time.perf_counter()
        self.log.request(
            kind, ended - (since if since is not None else sent),
            ended - sent, response.status == expect,
            f"{method} {path}: {response.status}, expected {expect}",
        )
        return payload

    def close(self) -> None:
        self.connection.close()


class Log:
    """Thread-safe latency samples and failures of one phase."""

    def __init__(self, result: Result) -> None:
        self.result = result
        self.clock = Clock()
        self.wire_seconds = 0.0
        self.lock = threading.Lock()

    def request(self, kind, latency, wire, ok, message) -> None:
        with self.lock:
            self.result.attempted += 1
            self.result.check(ok, message)
            self.clock.add("request", latency)
            self.wire_seconds += wire
            if kind != "request":
                self.clock.add(kind, latency)

    def add(self, name: str, seconds: float) -> None:
        with self.lock:
            self.clock.add(name, seconds)


def plan_sessions(seed: int, count: int, prefix: str):
    """Seeded session scripts: (name, elicited xRQs, reads, deleted id,
    background?)."""
    rng = random.Random(f"{seed}-{prefix}")
    pool = requirement_corpus(POOL)
    texts = {requirement.id: xrq.dumps(requirement) for requirement in pool}
    sessions = []
    for index in range(count):
        chosen = rng.sample(pool, rng.choice(ELICITS))
        sessions.append((
            f"{prefix}{index:05d}",
            [(r.id, texts[r.id]) for r in chosen],
            [rng.choice(("status", "design")) for __ in chosen],
            rng.choice(chosen).id,
            rng.random() < BACKGROUND_SHARE,
        ))
    return sessions


def run_session(client: Client, session, due: float, scripts: dict) -> None:
    """One session script; its deployed SQL lands in ``scripts``."""
    name, elicits, reads, deleted, background = session
    base = f"/sessions/{name}"
    client.request(
        "POST", "/sessions", {"name": name}, expect=201, since=due
    )
    for (__, text), read in zip(elicits, reads):
        client.request(
            "POST", base + "/requirements", {"xrq": text}, expect=201,
            kind="elicit",
        )
        client.request("GET", f"{base}/{read}")
    client.request("DELETE", f"{base}/requirements/{deleted}")
    if background:
        job = client.request(
            "POST", base + "/deploy", {"platform": "sql", "background": True},
            expect=202,
        )
        while True:
            state = client.request("GET", job["status_url"])
            if state.get("state") not in ("queued", "running"):
                break
            time.sleep(POLL_INTERVAL)
        deployed = state.get("result") or {}
        client.log.result.check(
            state.get("state") == "done", f"{name}: job {state}"
        )
    else:
        deployed = client.request("POST", base + "/deploy", {"platform": "sql"})
    scripts[name] = (deployed.get("artifacts") or {}).get("script")


def open_loop(port, sessions, result, scripts) -> Tuple[Log, List[float]]:
    """Sessions due at a fixed rate, served by CLIENTS threads."""
    log = Log(result)
    lags: List[float] = []
    cursor = iter(range(len(sessions)))
    cursor_lock = threading.Lock()
    started = time.perf_counter() + 0.05

    def worker():
        client = Client(port, log)
        try:
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = started + index / OFFERED_RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lags.append(time.perf_counter() - due)
                run_session(client, sessions[index], due, scripts)
                log.add("session", time.perf_counter() - due)
        finally:
            client.close()

    run_threads(worker)
    return log, lags


def closed_loop(port, sessions, seconds, result, scripts) -> Tuple[int, float]:
    """CLIENTS clients back to back; (sessions completed, seconds)."""
    log = Log(result)
    cursor = iter(sessions)
    cursor_lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds
    completed = []

    def worker():
        client = Client(port, log)
        try:
            while time.perf_counter() < deadline:
                with cursor_lock:
                    session = next(cursor, None)
                if session is None:
                    return
                run_session(client, session, time.perf_counter(), scripts)
                completed.append(time.perf_counter())
        finally:
            client.close()

    run_threads(worker)
    return len(completed), max(completed, default=started) - started


def run_threads(worker) -> None:
    errors = []

    def guarded():
        try:
            worker()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded) for __ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"load generator failed: {errors[0]!r}")


def embedded_script(requirement_ids, texts, cache) -> str:
    """The SQL script an embedded session deploys for these requirements."""
    key = tuple(requirement_ids)
    if key not in cache:
        session = DesignSession(tpch.ontology(), tpch.schema(), tpch.mappings())
        for requirement_id in requirement_ids:
            session.add_requirement_xrq(texts[requirement_id])
        cache[key] = session.deploy("sql").artifacts["script"]
    return cache[key]


def check_scripts(sessions, scripts, result) -> None:
    texts = {}
    for __, elicits, __, __, __ in sessions:
        texts.update(elicits)
    cache: Dict[tuple, str] = {}
    for name, elicits, __, deleted, __ in sessions:
        if name not in scripts:
            continue
        kept = [rid for rid, __ in elicits if rid != deleted]
        result.check(
            scripts[name] == embedded_script(kept, texts, cache),
            f"{name}: deployed SQL differs from an embedded build",
        )


def run(seed: int, seconds: float, layers=None) -> Result:
    result = Result("serve_sessions")
    servers: List[Server] = []
    try:
        setup_s, __ = median_setup(lambda: servers.append(Server()))
        for stale in servers[:-1]:
            stale.stop()
        return measure(seed, seconds, layers, result, servers[-1], setup_s)
    finally:
        for server in servers:
            server.stop()


def measure(seed, seconds, layers, result, server, setup_s) -> Result:
    open_seconds = seconds * OPEN_SHARE
    closed_seconds = seconds - open_seconds
    opened = plan_sessions(seed, int(open_seconds * OFFERED_RATE), "o")
    # More closed-loop scripts than can finish; the clock stops them.
    closed = plan_sessions(seed, int(closed_seconds * 40), "c")
    scripts: Dict[str, str] = {}
    untraced_capacity = None
    if layers is not None:
        done, elapsed = closed_loop(
            server.port, plan_sessions(seed, 400, "u"), closed_seconds,
            result, {},
        )
        untraced_capacity = done / elapsed
        server.command("trace")
    log, lags = open_loop(server.port, opened, result, scripts)
    done, elapsed = closed_loop(
        server.port, closed, closed_seconds, result, scripts
    )
    capacity = done / elapsed
    stats = server.command("stats")
    check_scripts(opened + closed, scripts, result)

    result.metric("setup_s", setup_s, "s")
    result.metric("peak_rss_mb", stats["peak_rss_mb"], "MB")
    result.say(
        f"serve_sessions: seed {seed}, {len(opened)} open-loop sessions at "
        f"{OFFERED_RATE}/s, {done} closed-loop sessions from {CLIENTS} "
        f"clients, {stats['repository_documents']} repository documents"
    )
    clock = log.clock
    if layers is not None:
        report_traced(result, stats, log, lags, capacity, untraced_capacity)
        return result
    report_latencies(result, clock, METRICS)
    result.metric("rate_per_s", capacity, "1/s")
    result.say(
        f"  {'serve.capacity_sessions_per_s':<32} {capacity:10.2f} 1/s  "
        f"(n={done})"
    )
    return result


def report_traced(result, stats, log, lags, capacity, untraced) -> None:
    """Per-layer metrics: the server's own plus the client-side ones."""
    operations = stats["breakdown"]
    server_ms = sum(
        entry["mean_ms"] * entry["ops"] for entry in operations.values()
    )
    server_requests = sum(entry["ops"] for entry in operations.values())
    values = dict(stats["metrics"])
    values["serve.transport_ms"] = (
        log.wire_seconds * 1000.0 / log.clock.count("request")
        - server_ms / server_requests
    )
    values["serve.generator_lag_ms"] = percentile(lags, 0.5) * 1000.0
    values["serve.repository_documents"] = stats["repository_documents"]
    values["trace.overhead_pct"] = (untraced / capacity - 1.0) * 100.0
    result.say(
        f"  tracing overhead: {capacity:.2f} sessions/s traced against "
        f"{untraced:.2f} untraced"
    )
    print_layers(result, values, operations)
