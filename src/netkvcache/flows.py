"""Classification of client messages into the traffic flows.

Client-side messages split into the manipulation flow (data operations
the cache understands) and the coordination flow (handshakes, pings,
monitoring — everything else, forwarded untouched). Server-side messages
need no classifier: the engine matches responses to tracked requests by
``response_to`` and forwards everything unchanged.
"""

from __future__ import annotations

import enum

from .wire import MANIPULATION_OPCODE, RawMessage, peek_first_field

COMMAND_KEYWORDS = frozenset({"find", "insert", "update", "delete"})


class FlowClass(enum.Enum):
    MANIPULATION = "manipulation"
    COORDINATION = "coordination"


def classify_client(m: RawMessage) -> FlowClass:
    """Classify a client-originated message.

    Manipulation iff the opcode is 2013 and the body's first field is a
    recognized command keyword; anything else (including undecodable
    bodies) is coordination traffic and passes through untouched.
    """
    if m.header.op_code != MANIPULATION_OPCODE:
        return FlowClass.COORDINATION
    first = peek_first_field(m.body)
    if first in COMMAND_KEYWORDS:
        return FlowClass.MANIPULATION
    return FlowClass.COORDINATION

