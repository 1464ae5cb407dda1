"""One-way-delay link emulation over TCP, at message granularity, and the
timed-delivery loop it shares with the mock server.

A ``RouteLoop`` is a ``loop.Loop`` whose legs hand each frame to their
handler no earlier than the leg's fixed delay after the frame was read.
Each held frame is a loop timer, and timers run in due order, so one
leg's frames keep their order and back-to-back frames overlap their
delays, as on a real long link.
"""

from __future__ import annotations

import socket
import time

from .. import wire
from ..loop import Connection, Leg, Loop

# time.sleep() on a loaded box overshoots by hundreds of microseconds,
# and epoll rounds its timeout up to whole milliseconds; either would
# swamp sub-10ms emulated delays. So a RouteLoop's select() waits only
# until this margin before a held frame's due time, then the loop
# yield-spins the final stretch, polling its sockets so that a frame
# arriving meanwhile is stamped when it arrives.
_SPIN_WINDOW_S = 0.002


def _sleep_until(deadline: float) -> None:
    while time.perf_counter() < deadline:
        time.sleep(0)


class RouteLoop(Loop):
    """A loop whose legs deliver each frame ``leg.delay`` seconds after it
    was read."""

    def _run_timers(self) -> float | None:
        timeout = super()._run_timers()
        if timeout is None:
            return None
        if timeout > _SPIN_WINDOW_S:
            return timeout - _SPIN_WINDOW_S
        time.sleep(0)  # spinning: yield, then poll the sockets
        return 0

    def _fill(self, leg: Leg) -> None:
        super()._fill(leg)
        self._arrived = time.perf_counter()  # stamps the frames just read

    def _take(self, leg: Leg, m: wire.RawMessage) -> None:
        if not leg.delay:  # due now: hand it over without a timer
            leg.handler(m)
            return
        leg.held += m.header.length
        at = self._arrived + leg.delay
        self.call_at(at, self._hand_over, leg, m, at)

    def _hand_over(self, leg: Leg, m: wire.RawMessage, at: float) -> None:
        _sleep_until(at)  # already due; perfbench hooks it to record `at`
        self._deliver(leg, m)


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
        near = Leg(sock, "near", delay=self.oneway_s)
        far = Leg(far_sock, "far", lambda m: wire.write_message(near, m), self.oneway_s)
        near.handler = lambda m: wire.write_message(far, m)
        return self.attach(Connection(near, far))
