"""HTTP traffic for the ``serve-mixed`` workload.

Two keep-alive connections, each driven by one thread.  In the open
loop every request has a due time fixed in advance; a sender sleeps
until its request is due, so when both connections are busy the next
request waits, and that wait counts in its latency (latency runs from
the due time, not the send time).  The closed loop sends each
connection's next request as soon as its previous one is answered.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from collections import deque
from dataclasses import dataclass

CONNECTIONS = 2


@dataclass
class Answer:
    request: dict
    cold: bool
    due: float
    sent: float
    done: float
    status: int
    digest: str

    @property
    def latency_s(self):
        return self.done - self.due

    @property
    def lateness_s(self):
        """How long after its due time the request left the client."""
        return self.sent - self.due


class Client:
    """One keep-alive connection to the daemon; response bodies are
    kept once per distinct body (by sha256) for the correctness pass."""

    def __init__(self, port, bodies, lock):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.bodies = bodies
        self.lock = lock

    def post(self, request):
        payload = {k: v for k, v in request.items() if k != "cold"}
        try:
            self.conn.request(
                "POST", "/v1/threshold", json.dumps(payload),
                {"Content-Type": "application/json"},
            )
            response = self.conn.getresponse()
            body = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60)
            return 0, ""
        digest = hashlib.sha256(body).hexdigest()
        with self.lock:
            self.bodies.setdefault(digest, body)
        return status, digest

    def close(self):
        self.conn.close()


def _run_senders(port, bodies, take):
    lock = threading.Lock()
    answers = []

    def sender():
        client = Client(port, bodies, lock)
        try:
            while True:
                with lock:
                    item = take()
                if item is None:
                    return
                due, request = item
                now = time.perf_counter()
                if due is None:
                    due = now
                elif due > now:
                    time.sleep(due - now)
                sent = time.perf_counter()
                status, digest = client.post(request)
                done = time.perf_counter()
                with lock:
                    answers.append(Answer(request, request["cold"], due,
                                          sent, done, status, digest))
        finally:
            client.close()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return answers


def open_loop(port, requests, rate, bodies):
    """Send ``requests`` at a fixed ``rate`` (requests/s); returns the
    answers and the time the schedule started."""
    start = time.perf_counter() + 0.05
    schedule = deque(
        (start + i / rate, request) for i, request in enumerate(requests)
    )
    answers = _run_senders(
        port, bodies, lambda: schedule.popleft() if schedule else None)
    return answers, start


def closed_loop(port, requests, bodies):
    """Send ``requests`` keeping both connections busy; returns the
    answers and the wall time they took."""
    pending = deque(requests)
    start = time.perf_counter()
    answers = _run_senders(
        port, bodies, lambda: (None, pending.popleft()) if pending else None)
    return answers, time.perf_counter() - start
