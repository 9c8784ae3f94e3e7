"""Open-loop request generation with a fixed number of connections.

Arrivals follow a schedule made in advance from the workload seed; they
are sent when due whether or not earlier requests have finished. A due
request waits only when every connection is busy. Each request is timed
from its *scheduled* send time, so a stall also charges the wait it
imposes on the requests behind it, and the generator's own lateness
(waking after a request was due while a connection was free) is
reported apart.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class Arrival:
    """One scheduled request; ``offset`` is seconds after the phase start."""

    offset: float
    kind: str
    payload: Any


@dataclass
class Sent:
    """What happened to one arrival; times are ``perf_counter`` seconds."""

    arrival: Arrival
    due: float
    taken: float  # when a connection became free for it
    sent: float
    done: float
    result: Any = None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        """From the scheduled send time to the response."""
        return (self.done - self.due) * 1e3

    @property
    def queue_wait_ms(self) -> float:
        """Time the due request waited for a free connection."""
        return max(0.0, self.taken - self.due) * 1e3

    @property
    def lateness_ms(self) -> float:
        """How late the generator sent once a connection was free."""
        return max(0.0, self.sent - max(self.due, self.taken)) * 1e3


def run_open_loop(
    arrivals: list[Arrival],
    send: Callable[[Arrival, int], Any],
    connections: int,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[list[Sent], float]:
    """Send ``arrivals`` (sorted by offset) over ``connections`` threads.

    ``send(arrival, index)`` performs one request and returns its result;
    an exception it raises is recorded as the request's error. Returns
    the records in schedule order and the phase start time.
    """
    records: list[Sent | None] = [None] * len(arrivals)
    lock = threading.Lock()
    cursor = iter(range(len(arrivals)))
    start = clock()

    def connection() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            arrival = arrivals[index]
            taken = clock()
            due = start + arrival.offset
            if due > taken:
                sleep(due - taken)
            sent = clock()
            result = error = None
            try:
                result = send(arrival, index)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                error = f"{type(exc).__name__}: {exc}"
            records[index] = Sent(arrival, due, taken, sent, clock(), result, error)

    threads = [threading.Thread(target=connection) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for record in records if record is not None], start


def busy_seconds(records: list[Sent]) -> float:
    """Time during which at least one request was in flight: the union
    of the records' ``[sent, done]`` intervals."""
    busy, reach = 0.0, float("-inf")
    for record in sorted(records, key=lambda record: record.sent):
        start = max(record.sent, reach)
        if record.done > start:
            busy += record.done - start
            reach = record.done
    return busy
