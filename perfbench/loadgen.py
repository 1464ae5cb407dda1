"""Closed-loop load generator: one thread drives every connection.

Each connection has at most one request outstanding and sends its next
request only after the reply to the previous one has been read and
checked. All connections share one ``selectors`` loop in the calling
thread, so the generator adds no thread hand-offs of its own.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field

import wirefmt

_RECV_BYTES = 1 << 18

# Outcomes a workload's check returns for one reply.
OK, STALE, FAIL = 0, 1, 2


class LoadError(RuntimeError):
    """The system under test stopped answering or broke framing."""


def connect(address: tuple[str, int]) -> socket.socket:
    sock = socket.create_connection(address, timeout=30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _take_frame(buf: bytearray) -> bytes | None:
    """Remove one complete frame from ``buf``, or return None if short."""
    if len(buf) < 4:
        return None
    (length,) = wirefmt.U32.unpack_from(buf)
    if length < wirefmt.HEADER_PREFIX_SIZE + 5:
        raise LoadError(f"reply length {length} cannot hold a header and a body")
    if len(buf) < length:
        return None
    frame = bytes(buf[:length])
    del buf[:length]
    return frame


def request(sock: socket.socket, body: bytes) -> bytes:
    """Blocking round trip; returns the reply body (used during set-up)."""
    request_id = 1
    sock.sendall(wirefmt.frame(request_id, body))
    buf = bytearray()
    while (frame := _take_frame(buf)) is None:
        chunk = sock.recv(_RECV_BYTES)
        if not chunk:
            raise LoadError("connection closed while waiting for a reply")
        buf += chunk
    if buf or wirefmt.REPLY_IDS.unpack_from(frame, 4)[1] != request_id:
        raise LoadError(f"reply does not answer request {request_id}")
    return frame[wirefmt.HEADER_PREFIX_SIZE:]


@dataclass
class Tally:
    """What one drive over a set of connections produced."""

    latency_ns: list[int] = field(default_factory=list)
    done_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reads: int = 0
    stale: int = 0


class _Leg:
    __slots__ = ("index", "sock", "buf", "request_id", "op", "sent_ns")

    def __init__(self, index: int, sock: socket.socket):
        self.index = index
        self.sock = sock
        self.buf = bytearray()
        self.request_id = 0
        self.op = None
        self.sent_ns = 0


def drive(socks, workload, stop_ns: int | None = None, timeout_s: float = 10.0) -> Tally:
    """Run the closed loop until the workload runs dry or ``stop_ns`` passes.

    ``workload.next_op(conn)`` returns ``(is_read, body, ctx)`` or None;
    ``workload.check(conn, ctx, reply_body)`` returns OK, STALE or FAIL.
    Requests in flight at ``stop_ns`` are still awaited and checked.
    Raises LoadError if no reply arrives within ``timeout_s``.
    """
    tally = Tally()
    now = time.monotonic_ns
    sel = selectors.DefaultSelector()
    live = 0

    def send_next(leg: _Leg) -> bool:
        if stop_ns is not None and now() >= stop_ns:
            return False
        op = workload.next_op(leg.index)
        if op is None:
            return False
        leg.request_id += 1
        leg.op = op
        data = wirefmt.frame(leg.request_id, op[1])
        leg.sent_ns = now()
        leg.sock.sendall(data)
        tally.attempted += 1
        return True

    try:
        for i, sock in enumerate(socks):
            leg = _Leg(i, sock)
            if send_next(leg):
                sel.register(sock, selectors.EVENT_READ, leg)
                live += 1
        while live:
            ready = sel.select(timeout_s)
            if not ready:
                raise LoadError(f"no reply within {timeout_s:.0f} s")
            for key, _ in ready:
                leg = key.data
                chunk = leg.sock.recv(_RECV_BYTES)
                if not chunk:
                    raise LoadError("proxy closed a connection mid-run")
                leg.buf += chunk
                frame = _take_frame(leg.buf)
                if frame is None:
                    continue
                done = now()
                if leg.buf or wirefmt.REPLY_IDS.unpack_from(frame, 4)[1] != leg.request_id:
                    raise LoadError(f"reply does not answer request {leg.request_id}")
                is_read, _, ctx = leg.op
                outcome = workload.check(leg.index, ctx, frame[wirefmt.HEADER_PREFIX_SIZE:])
                tally.latency_ns.append(done - leg.sent_ns)
                tally.done_ns.append(done)
                tally.failed += outcome == FAIL
                if is_read:
                    tally.reads += 1
                    tally.stale += outcome == STALE
                if not send_next(leg):
                    sel.unregister(leg.sock)
                    live -= 1
    finally:
        sel.close()
    return tally
