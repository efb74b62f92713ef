"""Serving DBPL sessions over TCP.

The paper's thesis is that persistence and inheritance belong *in the
language*; this package adds the missing half noted by "Orthogonal
Persistence Revisited" — shared, multi-user access.  A small asyncio
socket server multiplexes many client connections over one shared
store, one :class:`~repro.server.session.Session` per connection:

* :mod:`repro.server.protocol` — the length-prefixed JSON frame
  protocol (``hello``/``run``/``result``/``error``/``stat``/``bye``);
* :mod:`repro.server.session`  — per-connection DBPL state (bindings,
  transient extents, table statistics) against the shared store, and
  the backend abstraction the REPL drives locally or remotely;
* :mod:`repro.server.broker`   — the :class:`SessionBroker`:
  connection limit, bounded accept queue, the worker pool, and the
  parse cache every session shares;
* :mod:`repro.server.server`   — :class:`DBPLServer` (asyncio accept
  loop, idle timeout, graceful drain) and :class:`ServerThread` for
  embedding a server in tests, benchmarks, and examples;
* :mod:`repro.server.client`   — the blocking :class:`Client` the
  REPL's ``:connect`` mode uses.

Run one with ``python -m repro.server [--port N] [store-path]``.
"""

from repro.server.broker import SessionBroker
from repro.server.client import Client, parse_address
from repro.server.protocol import MAX_FRAME, PROTOCOL_VERSION
from repro.server.server import DBPLServer, ServerThread
from repro.server.session import Session

__all__ = [
    "Client",
    "DBPLServer",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ServerThread",
    "Session",
    "SessionBroker",
    "parse_address",
]
