"""The ``service-mix`` workload: a ``repro-serve`` subprocess under a closed
loop of keep-alive connections.

Callers of the service (scripts, CI) each wait for their reply before
sending the next request, so the load is a closed loop: ``CONNECTIONS``
client threads, each with one keep-alive connection, take the next request
of the pass as soon as their previous one has been answered.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, List, Optional, Sequence, Tuple

from stats import Outcomes

CONNECTIONS = 2
SERVER_WORKERS = 2
MAX_INFLIGHT = 16
REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


class Server:
    """A ``repro-serve`` child process bound to an ephemeral port."""

    def __init__(self, root: str, cache_size: int) -> None:
        self.root = root
        self.cache_size = cache_size
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self._drain: Optional[threading.Thread] = None

    def start(self) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service.app", "--host", self.host,
             "--port", "0", "--workers", str(SERVER_WORKERS),
             "--cache-size", str(self.cache_size),
             "--max-inflight", str(MAX_INFLIGHT)],
            cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        line = self.process.stderr.readline()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        self.port = int(match.group(2))
        # Keep reading the server's log so that it never blocks on a full pipe.
        self._drain = threading.Thread(
            target=lambda: self.process.stderr.read(), daemon=True)
        self._drain.start()
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.get("/healthz")[0] != 200:
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro-serve never answered /healthz")
            time.sleep(0.01)

    def get(self, path: str) -> Tuple[int, str]:
        connection = HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read().decode("utf-8")
        except OSError:
            return 0, ""
        finally:
            connection.close()

    def scrape(self) -> Dict[str, float]:
        """Numeric ``/metrics`` samples; labelled ones keep their labels."""
        status, text = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        samples: Dict[str, float] = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        return samples

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        if self._drain is not None:
            self._drain.join(timeout=5)
        self.process.stderr.close()
        self.process = None


def rejected_total(samples: Dict[str, float]) -> float:
    """429 answers counted in ``repro_requests_total``."""
    return sum(value for name, value in samples.items()
               if name.startswith("repro_requests_total") and 'status="429"' in name)


class PassResult:
    """Latencies, outcomes and bodies of one pass of the request mix."""

    def __init__(self) -> None:
        self.outcomes = Outcomes()
        #: (op index in the pass, seconds) of every answered analyze request
        self.analyze: List[Tuple[int, float]] = []
        self.churn_steps: List[float] = []
        self.bodies: Dict[int, Any] = {}
        self.streams: Dict[int, List[Dict[str, Any]]] = {}
        self.wall_s = 0.0
        self.lock = threading.Lock()


def _analyze(connection: HTTPConnection, body: bytes, op: int,
             result: PassResult) -> None:
    started = time.perf_counter()
    connection.request("POST", "/v1/analyze", body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    payload = response.read()
    seconds = time.perf_counter() - started
    ok = response.status == 200
    with result.lock:
        result.outcomes.record(ok)
        if ok:
            result.analyze.append((op, seconds))
            result.bodies[op] = json.loads(payload)


def _churn(connection: HTTPConnection, body: bytes, steps: int, op: int,
           result: PassResult) -> None:
    started = time.perf_counter()
    connection.request("POST", "/v1/churn", body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    lines, gaps = [], []
    if response.status == 200:
        previous = started
        while True:
            raw = response.readline()
            if not raw:
                break
            now = time.perf_counter()
            line = json.loads(raw)
            if "step" in line:
                gaps.append(now - previous)
                previous = now
            lines.append(line)
    else:
        response.read()
    good = [line for line in lines if "step" in line and "error" not in line]
    with result.lock:
        for index in range(steps):
            result.outcomes.record(index < len(good))
        result.churn_steps.extend(gaps[: len(good)])
        result.streams[op] = lines


def run_pass(server: Server, ops: Sequence[Tuple[str, bytes, int]]) -> PassResult:
    """Send ``ops`` (kind, body, churn steps) over a closed loop."""
    result = PassResult()
    cursor = iter(range(len(ops)))
    cursor_lock = threading.Lock()

    def client() -> None:
        connection = HTTPConnection(server.host, server.port, timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with cursor_lock:
                    op = next(cursor, None)
                if op is None:
                    return
                kind, body, steps = ops[op]
                try:
                    if kind == "analyze":
                        _analyze(connection, body, op, result)
                    else:
                        _churn(connection, body, steps, op, result)
                except (OSError, HTTPException, ValueError):
                    with result.lock:
                        for _ in range(max(1, steps)):
                            result.outcomes.record(False)
                    connection.close()
                    connection = HTTPConnection(
                        server.host, server.port, timeout=REQUEST_TIMEOUT_S)
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = time.perf_counter() - started
    return result
