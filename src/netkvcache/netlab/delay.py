"""One-way-delay link emulation over TCP, at message granularity: the
lab's only source of delay.

A ``DelayPipe`` is a ``loop.Loop`` that hands each frame to the other
side no earlier than ``oneway_s`` after the frame was read. Each held
frame is a loop timer, and timers run in due order, so one leg's frames
keep their order and back-to-back frames overlap their delays, as on a
real long link.
"""

from __future__ import annotations

import socket
import time

from .. import wire
from ..loop import Connection, Leg, Loop

# time.sleep() on a loaded box overshoots by hundreds of microseconds,
# and epoll rounds its timeout up to whole milliseconds; either would
# swamp sub-10ms emulated delays. So a pipe's select() waits only until
# this margin before a held frame's due time, then the loop yield-spins
# the final stretch, polling its sockets so that a frame arriving
# meanwhile is stamped when it arrives.
_SPIN_WINDOW_S = 0.002


def _sleep_until(deadline: float) -> None:
    while time.perf_counter() < deadline:
        time.sleep(0)


class DelayPipe(Loop):
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
        near = Leg(sock, "near")
        far = Leg(far_sock, "far", lambda m: wire.write_message(near, m))
        near.handler = lambda m: wire.write_message(far, m)
        return self.attach(Connection(near, far))

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
        if not self.oneway_s:  # due now: hand it over without a timer
            leg.handler(m)
            return
        leg.held += m.header.length
        at = self._arrived + self.oneway_s
        self.call_at(at, self._hand_over, leg, m, at)

    def _hand_over(self, leg: Leg, m: wire.RawMessage, at: float) -> None:
        _sleep_until(at)  # already due; perfbench hooks it to record `at`
        self._deliver(leg, m)
