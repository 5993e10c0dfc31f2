"""The load generator: framed requests over TCP in a closed loop.

Each connection is a caller that sends its next request only after
the previous reply arrived.  Replies are kept as raw frame bodies; they
are decoded and checked against the oracle after the timed window, so
the check costs the load generator nothing while it is timed.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

from repro.shard.protocol import HEADER, encode_frame


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise ConnectionError("server closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def call_raw(sock: socket.socket, frame: bytes) -> bytes:
    """One round trip; returns the raw response body."""
    sock.sendall(frame)
    (length,) = HEADER.unpack(_recv_exact(sock, HEADER.size))
    return _recv_exact(sock, length)


def call(sock: socket.socket, payload: dict) -> dict:
    return json.loads(call_raw(sock, encode_frame(payload)))


@dataclass
class ConnectionLog:
    """What one connection sent and received in a window, in stream
    order."""

    kinds: list = field(default_factory=list)
    payloads: list = field(default_factory=list)
    bodies: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    finished_at: float = 0.0


def _send(sock: socket.socket, stream, log: ConnectionLog) -> bool:
    """Send the stream's next request and log it; False if the
    connection broke (the request is logged with no body)."""
    kind, payload = next(stream)
    frame = encode_frame(payload)
    began = time.perf_counter()
    try:
        body = call_raw(sock, frame)
    except OSError:
        body = None
    log.latencies.append(time.perf_counter() - began)
    log.kinds.append(kind)
    log.payloads.append(payload)
    log.bodies.append(body)
    return body is not None


def _drive(sock, stream, start: threading.Barrier, count: int, log) -> None:
    start.wait()
    try:
        for _ in range(count):
            if not _send(sock, stream, log):
                break
    finally:
        log.finished_at = time.perf_counter()


def closed_loop(
    socks: list[socket.socket],
    streams: list[Iterator[tuple[str, dict]]],
    count: int,
) -> tuple[list[ConnectionLog], float]:
    """Send the first ``count`` requests of every connection's stream;
    returns the logs and the wall time until the last connection
    finished."""
    logs = [ConnectionLog() for _ in socks]
    start = threading.Barrier(len(socks) + 1)
    threads = [
        threading.Thread(
            target=_drive,
            args=(sock, stream, start, count, log),
            daemon=True,
        )
        for sock, stream, log in zip(socks, streams, logs)
    ]
    for thread in threads:
        thread.start()
    began = time.perf_counter()
    start.wait()
    for thread in threads:
        thread.join()
    return logs, max(log.finished_at for log in logs) - began

