"""One-way-delay link emulation over TCP, at message granularity, and the
timed-delivery loop it shares with the mock server.

A ``RouteLoop`` is a ``loop.Loop`` whose routes hand each frame to their
handler no earlier than the route's fixed delay after the frame was
read. Deliveries go out in due order, so one route's frames keep their
order and back-to-back frames overlap their delays, as on a real long
link.
"""

from __future__ import annotations

import heapq
import itertools
import socket
import time

from .. import wire
from ..loop import Connection, Loop, Route

# time.sleep() on a loaded box overshoots by hundreds of microseconds,
# and epoll rounds its timeout up to whole milliseconds; either would
# swamp sub-10ms emulated delays. So the loop's select() waits only until
# this margin before a due time, then the loop yield-spins the final
# stretch, polling its sockets so that a frame arriving meanwhile is
# stamped when it arrives.
_SPIN_WINDOW_S = 0.002


def _sleep_until(deadline: float) -> None:
    while time.perf_counter() < deadline:
        time.sleep(0)


class RouteLoop(Loop):
    """A loop whose routes deliver each frame ``route.delay`` seconds
    after it was read."""

    def __init__(self, listen: tuple[str, int]):
        super().__init__(listen)
        self._due: list[tuple[float, int, Route, wire.RawMessage]] = []  # a heap
        self._arrivals = itertools.count()  # orders frames due at the same time

    def _fill(self, route: Route) -> None:
        super()._fill(route)
        self._arrived = time.perf_counter()  # stamps the frames just read

    def _take(self, route: Route, m: wire.RawMessage) -> None:
        if not route.delay:  # due now: hand it over without a turn through the heap
            route.handler(m)
            return
        route.held += m.header.length
        heapq.heappush(self._due, (self._arrived + route.delay,
                                   next(self._arrivals), route, m))

    def _tick(self) -> float | None:
        due = self._due
        while due and due[0][0] <= time.perf_counter():
            at, _, route, m = heapq.heappop(due)
            _sleep_until(at)  # already due; perfbench hooks it to record `at`
            self._deliver(route, m)
        if not due:
            return None
        timeout = due[0][0] - time.perf_counter() - _SPIN_WINDOW_S
        if timeout > 0:
            return timeout
        time.sleep(0)  # spinning: yield, then poll the sockets
        return 0


class DelayPipe(RouteLoop):
    """TCP forwarder adding a fixed one-way delay in each direction."""

    thread_name = "pipe-loop"

    def __init__(self, target: tuple[str, int], oneway_ms: float,
                 listen: tuple[str, int] = ("127.0.0.1", 0)):
        if oneway_ms < 0:
            raise ValueError("oneway_ms must be >= 0")
        super().__init__(listen)
        self.target = target
        self.oneway_s = oneway_ms / 1000.0

    def _accepted(self, sock: socket.socket) -> Connection:
        # A blocking connect on the loop thread: the lab's targets are
        # local, so it returns at once.
        far_sock = socket.create_connection(self.target, timeout=5.0)
        near, far = wire.Leg(sock, "near"), wire.Leg(far_sock, "far")
        return self.attach(Connection(near, far),
                           Route(near, far, lambda m: wire.write_message(far, m), self.oneway_s),
                           Route(far, near, lambda m: wire.write_message(near, m), self.oneway_s))
