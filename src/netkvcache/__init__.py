"""netkvcache: a transparent caching proxy for a key-value wire protocol.

The proxy sits between clients and their key-value server, answers
repeated reads from a local store, and invalidates on writes, while all
other traffic passes through byte-identically. The ``netlab`` subpackage
provides a mock server, one-way-delay link emulation, and a scenario
runner for measuring the cache under WAN-like distances on one machine.
"""

__version__ = "0.1.0"
