"""One-way-delay link emulation over TCP, at message granularity: the
lab's only source of delay, and the one home of the pipe's clock.

A ``DelayPipe`` is a ``loop.Loop`` whose legs' handlers hold each frame,
counted in ``Leg.held``, until ``oneway_s`` after the read that brought
its bytes (``Leg.arrived``); a loop timer then hands it to the other side,
through the loop's guard. Timers run in due order, so one leg's frames
keep their order and back-to-back frames overlap their delays, as on a
real long link. A 0 ms pipe's timer is due at once; the lab wires a zero
delay as a plain connection.
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

    def __init__(self, target: tuple[str, int], oneway_ms: float):
        if oneway_ms < 0:
            raise ValueError("oneway_ms must be >= 0")
        super().__init__(("127.0.0.1", 0))
        self.target = target
        self.oneway_s = oneway_ms / 1000.0

    def _accepted(self, sock: socket.socket) -> Connection:
        # A blocking connect on the loop thread: the lab's targets are
        # local, so it returns at once.
        far_sock = socket.create_connection(self.target, timeout=5.0)
        near, far = Leg(sock, "near"), Leg(far_sock, "far")
        near.handler = lambda m: self._hold(near, far, m)
        far.handler = lambda m: self._hold(far, near, m)
        return self.attach(Connection(near, far))

    def _run_timers(self) -> float | None:
        timeout = super()._run_timers()
        if timeout is None:
            return None
        if timeout > _SPIN_WINDOW_S:
            return timeout - _SPIN_WINDOW_S
        time.sleep(0)  # spinning: yield, then poll the sockets
        return 0

    def _hold(self, leg: Leg, peer: Leg, m: wire.RawMessage) -> None:
        """Hold a frame just taken from ``leg`` until ``oneway_s`` after the
        read that brought its bytes, not after the time spent framing it."""
        leg.held += m.header.length
        at = leg.arrived + self.oneway_s
        self.call_at(at, self._hand_over, leg, peer, m, at)

    def _hand_over(self, leg: Leg, peer: Leg, m: wire.RawMessage, at: float) -> None:
        _sleep_until(at)  # already due; perfbench hooks it to record `at`
        leg.held -= m.header.length
        self.serve(leg.conn, wire.write_message, peer, m)
