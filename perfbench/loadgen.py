"""Load generation: a closed loop with one caller, and a seeded open loop.

Both stay inside the machine's budget: one process, and never more
threads or connections than ``os.cpu_count()`` (the open loop runs its
connections on the calling thread plus ``connections - 1`` helpers).
Every response is compared byte for byte with its expected body.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from .common import Post, Tally


@dataclass
class Request:
    path: str
    body: bytes
    content_type: str
    expected: bytes


@dataclass
class LoadResult:
    """Per-request times, in seconds from the start of the run."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    idle: np.ndarray  # the request's connection was free before it was due
    elapsed_s: float

    @property
    def latency_s(self) -> np.ndarray:
        """Completion minus due time of the correct responses (of all, if none was).

        Failed requests are counted by the caller's tally, so a broken run
        still reports its timings."""
        latency = self.done - self.due
        return latency[self.ok] if self.ok.any() else latency

    @property
    def late_s(self) -> np.ndarray:
        """How late the generator sent requests whose connection was idle."""
        idle = self.idle
        return self.sent[idle] - self.due[idle]

    @property
    def max_backlog(self) -> int:
        """Most requests ever due but not yet sent, seen at a send."""
        order = np.argsort(self.sent, kind="stable")
        due_by_send = np.searchsorted(np.sort(self.due), self.sent[order], side="right")
        waiting = due_by_send - np.arange(1, len(order) + 1)
        return int(max(0, waiting.max(initial=0)))

    def backlog_growing(self, slack_s: float = 0.02) -> bool:
        """Queue wait at the end of the run exceeds the wait at its start."""
        wait = self.sent - self.due
        third = max(1, len(wait) // 3)
        return float(np.median(wait[-third:])) > float(np.median(wait[:third])) + slack_s


def closed_loop(port: int, request: Request, seconds: float, tally: Tally, span=None) -> LoadResult:
    """One caller sending ``request`` back to back on one keep-alive connection.

    Each request is due the moment the previous one completed.
    """
    post = Post(port)
    due, sent, done, ok = [], [], [], []
    start = time.perf_counter()
    try:
        now = 0.0
        while now < seconds:
            due.append(now)
            sent.append(time.perf_counter() - start)
            if span is None:
                status, body = post(request.path, request.body, request.content_type)
            else:
                with span("loadgen.request"):
                    status, body = post(request.path, request.body, request.content_type)
            now = time.perf_counter() - start
            done.append(now)
            ok.append(tally.record(status == 200 and body == request.expected,
                                   f"{request.path}: status {status} or body mismatch"))
    finally:
        post.close()
    n = len(due)
    return LoadResult(np.array(due), np.array(sent), np.array(done), np.array(ok, dtype=bool),
                      np.ones(n, dtype=bool), time.perf_counter() - start)


def open_loop(
    port: int,
    requests: list[Request],
    due: np.ndarray,
    connections: int,
    tally: Tally,
    *,
    give_up_s: float = 2.0,
    span=None,
) -> LoadResult:
    """Send ``requests[i]`` at ``due[i]`` seconds over a pool of keep-alive connections.

    Each connection has its own thread.  A due request goes to the
    connection that has been idle longest (a FIFO pool); a request due
    while every connection is busy waits for the first to free, and its
    latency still counts from its due time.  Once some request has waited
    ``give_up_s`` the rate is plainly overloaded and the rest of the
    schedule is not sent.

    ``repro serve`` stalls ~40 ms on a keep-alive connection reused within
    ~40 ms of its last response.  The FIFO pool reuses that early only in
    bursts of arrivals, about one request in ten at 10/s, so the stall
    sets the tail while the median stays on unstalled requests.  (A
    randomly picked idle connection stalls a fifth to a third of them,
    depending on the seed, and the median then slides along the edge of
    the stalled mode.)
    """
    n = len(requests)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    idle = np.zeros(n, dtype=bool)
    cond = threading.Condition()
    free = list(range(connections))  # idle connections, longest idle first
    state = {"next": 0, "stop": False}
    errors: list[BaseException] = []
    start = time.perf_counter()

    def claim(slot: int) -> int | None:
        """Block until this connection takes the next request; None when done."""
        with cond:
            while True:
                i = state["next"]
                if i >= n or state["stop"]:
                    return None
                if slot not in free:
                    cond.wait()
                    continue
                wait = due[i] - (time.perf_counter() - start)
                if wait > 0:
                    idle[i] = True
                    cond.wait(timeout=wait)
                elif free[0] == slot:
                    state["next"] = i + 1
                    free.remove(slot)
                    cond.notify_all()
                    return i
                else:
                    cond.wait()  # the chosen connection claims it and notifies

    def worker(slot: int) -> None:
        post = Post(port)
        try:
            while (i := claim(slot)) is not None:
                sent[i] = time.perf_counter() - start
                request = requests[i]
                if span is None:
                    status, body = post(request.path, request.body, request.content_type)
                else:
                    with span("loadgen.request"):
                        status, body = post(request.path, request.body, request.content_type)
                done[i] = time.perf_counter() - start
                with cond:
                    ok[i] = tally.record(status == 200 and body == request.expected,
                                         f"{request.path}: status {status} or body mismatch")
                    if sent[i] - due[i] > give_up_s:
                        state["stop"] = True
                    free.append(slot)
                    cond.notify_all()
        except BaseException as exc:  # surfaced by the caller after join
            with cond:
                errors.append(exc)
                state["stop"] = True
                cond.notify_all()
        finally:
            post.close()

    helpers = [threading.Thread(target=worker, args=(slot,)) for slot in range(1, connections)]
    for thread in helpers:
        thread.start()
    worker(0)
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    sent_mask = ~np.isnan(done)
    return LoadResult(due[sent_mask], sent[sent_mask], done[sent_mask], ok[sent_mask],
                      idle[sent_mask], time.perf_counter() - start)


def poisson_schedule(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival times of a Poisson process of ``rate`` per second over ``seconds``,
    given that it brings its expected ``rate * seconds`` arrivals.

    Given their count, a Poisson process's arrival times are sorted uniform
    draws.  Fixing the count keeps the offered load the same under every
    seed, so a seed that happens to draw more arrivals does not read as a
    slower server.
    """
    count = max(1, round(rate * seconds))
    return np.sort(rng.uniform(0.0, seconds, size=count))
