"""Fabric wire protocol: one checksummed JSON object per line.

The coordinator and its workers speak the simplest protocol that can
survive rough weather: every message is a single JSON object on a
single ``\\n``-terminated line, sealed with the same SHA-256 content
checksum the checkpoint log uses (:func:`repro.store.seal_record`), and
every exchange is **one request, one reply, one connection**.  A
connection that drops mid-exchange therefore loses at most one message
whose sender will retry or degrade — there is no session state to
corrupt, no half-open stream to time out, and the coordinator's
accept loop can be threaded trivially.

Message vocabulary (see ``docs/FABRIC.md`` for the full field tables):

==============  =======================  ==================================
direction       request ``type``         reply ``type``
==============  =======================  ==================================
worker → coord  ``lease``                ``grant`` | ``wait`` | ``drained``
worker → coord  ``heartbeat``            ``ack``
worker → coord  ``result``               ``accepted`` | ``duplicate``
any → coord     ``status``               ``status``
(error reply)                            ``error``
==============  =======================  ==================================

A ``result`` with ``next: true`` asks for the worker's next cell: the
``accepted`` reply to a successful result then carries a ``grant``
field, a whole ``grant`` message, when a cell can be served.  Peers
that predate the field ignore it, so either side may be older.

Every message carries ``v`` (protocol version) and ``sum`` (content
checksum); :func:`decode_line` rejects anything else with
:class:`~repro.exceptions.ProtocolError` — a corrupt or truncated
message must never be half-understood.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Tuple

from repro.exceptions import ProtocolError
from repro.store.checkpoint import record_intact, seal_record

#: Protocol version; bump on incompatible message-shape changes.
PROTOCOL_VERSION = 1

#: Upper bound on one encoded message.  A grant carrying a full cell
#: spec is a few KiB; anything near this bound is garbage or abuse.
MAX_LINE_BYTES = 1 << 22  # 4 MiB

#: Default per-request socket timeout.  Requests are tiny; a peer that
#: cannot turn one around in this window is treated as unreachable.
REQUEST_TIMEOUT_S = 10.0


def encode_line(payload: Dict[str, Any]) -> bytes:
    """Seal ``payload`` (version + checksum) and frame it as one line."""
    sealed = seal_record({"v": PROTOCOL_VERSION, **payload})
    line = json.dumps(sealed, separators=(",", ":")) + "\n"
    data = line.encode("utf-8")
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(data)} bytes exceeds the {MAX_LINE_BYTES}-byte frame limit"
        )
    return data


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse and verify one received line; raises :class:`ProtocolError`."""
    if not line.endswith(b"\n"):
        raise ProtocolError(
            "unterminated message (peer closed mid-line or frame too long)"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"message is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message is not a JSON object")
    if message.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {message.get('v')!r}; "
            f"expected {PROTOCOL_VERSION}"
        )
    if not record_intact(message):
        raise ProtocolError("message checksum mismatch (corrupt frame)")
    if not isinstance(message.get("type"), str):
        raise ProtocolError("message has no type")
    return message


def read_message(fh: Any) -> Dict[str, Any]:
    """Read and decode one framed message from a binary file object."""
    line = fh.readline(MAX_LINE_BYTES + 1)
    if not line:
        raise ProtocolError("connection closed before a message arrived")
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds the {MAX_LINE_BYTES}-byte frame limit")
    result: Dict[str, Any] = decode_line(line)
    return result


def request(
    address: Tuple[str, int],
    payload: Dict[str, Any],
    *,
    timeout: float = REQUEST_TIMEOUT_S,
) -> Dict[str, Any]:
    """One round trip: connect, send ``payload``, read the reply, close.

    Raises ``OSError`` (refused/reset/timeout — the peer is
    unreachable) or :class:`~repro.exceptions.ProtocolError` (the peer
    replied garbage).  Callers decide which of those to survive.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(encode_line(payload))
        with sock.makefile("rb") as fh:
            reply = read_message(fh)
    if reply.get("type") == "error":
        raise ProtocolError(f"peer rejected request: {reply.get('reason')!r}")
    return reply


def error_reply(reason: str) -> Dict[str, Any]:
    """The coordinator's standard rejection of a bad request."""
    return {"type": "error", "reason": reason}
