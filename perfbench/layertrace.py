"""Spans around the public functions of each layer, recorded from
outside the program.

:func:`install` replaces those functions (module attributes and class
methods) with timing wrappers before the server starts; forked shard
workers inherit them.  Each process keeps its spans in memory as
``[name, start, end, parent, thread, extra]`` lists — ``parent`` is the
index of the enclosing span on the same thread, or -1 — and
:func:`flush` writes them to ``<dir>/<role>-<pid>.json``.  Times are
``time.perf_counter()`` readings, which on Linux share one monotonic
clock across processes, so the analysis can nest a worker's spans
inside the router's send/receive on that worker's socket.

Nothing in ``src/`` is edited: the wrappers call the original objects.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

_clock = time.perf_counter


class Recorder:
    """The spans of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.role = "router"
        self.shard: Optional[int] = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, extra: Any = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, _clock(), 0.0, parent, threading.get_ident(), extra]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        return record

    def close(self, record: list) -> None:
        record[2] = _clock()
        self._stack().pop()

    def root(self, name: str, start: float, end: float, extra: Any = None) -> None:
        """A span measured by hand, with no parent (the frontend's
        per-request span, whose ends lie in two different calls)."""
        self.spans.append([name, start, end, -1, threading.get_ident(), extra])

    def flush(self, directory: Path) -> None:
        path = directory / f"{self.role}-{os.getpid()}.json"
        payload = {"role": self.role, "shard": self.shard, "spans": self.spans}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)


RECORDER = Recorder()


def _wrap(
    owner: Any,
    attr: str,
    name: str,
    extra: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.  ``extra``
    computes the span's extra field from the call's arguments;
    ``after`` may replace it from the result."""
    static = inspect.getattr_static(owner, attr)
    is_classmethod = isinstance(static, classmethod)
    original = static.__func__ if is_classmethod else getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        record = RECORDER.open(name, extra(*args, **kwargs) if extra else None)
        try:
            result = original(*args, **kwargs)
        finally:
            RECORDER.close(record)
        if after is not None:
            record[5] = after(result, record[5])
        return result

    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)


def install(spans_dir: Path) -> None:
    """Wrap every traced function and arrange for each process to
    write its spans when it ends."""
    import asyncio

    import repro.compile as compile_pkg
    import repro.core.engine as engine_mod
    import repro.shard.frontend as frontend_mod
    import repro.shard.router as router_mod
    import repro.shard.worker as worker_mod
    from repro.compile.program import CompiledProgram
    from repro.core.ctm import InsertMaintainer
    from repro.core.readcache import ReadCache
    from repro.service.store import DurableStore
    from repro.service.wal import WriteAheadLog
    from repro.shard.protocol import encode_frame

    # -- shard.frontend: one span per request, from the moment its frame
    # is decoded to the moment the reply frame is queued.  Both ends run
    # in the connection's own task, which keys the pairing.
    received: dict[int, float] = {}
    read_frame = frontend_mod.read_frame
    write_frame = frontend_mod.write_frame

    async def traced_read_frame(reader):
        request = await read_frame(reader)
        if request is not None:
            received[id(asyncio.current_task())] = _clock()
        return request

    def traced_write_frame(writer, payload):
        started = received.pop(id(asyncio.current_task()), None)
        if started is not None:
            RECORDER.root("front.request", started, _clock())
        return write_frame(writer, payload)

    frontend_mod.read_frame = traced_read_frame
    frontend_mod.write_frame = traced_write_frame

    # -- shard.router
    for method in ("query", "insert", "apply_batch"):
        _wrap(router_mod.ShardRouter, method, f"router.{method}")

    sock_shard: dict[int, int] = {}
    router_init = router_mod.ShardRouter.__init__

    @functools.wraps(router_init)
    def traced_router_init(self, *args, **kwargs):
        router_init(self, *args, **kwargs)
        for index, sock in enumerate(self._socks):
            sock_shard[id(sock)] = index

    router_mod.ShardRouter.__init__ = traced_router_init

    # -- shard.protocol, router side: frame bytes are counted exactly
    # by encoding once and sending those bytes, as send_frame does.
    recv_frame = router_mod.recv_frame

    def traced_send_frame(sock, payload):
        data = encode_frame(payload)
        record = RECORDER.open("wire.send", [sock_shard.get(id(sock)), len(data)])
        try:
            sock.sendall(data)
        finally:
            RECORDER.close(record)

    def traced_recv_frame(sock):
        record = RECORDER.open("wire.recv", [sock_shard.get(id(sock)), 0])
        try:
            return recv_frame(sock)
        finally:
            RECORDER.close(record)

    router_mod.send_frame = traced_send_frame
    router_mod.recv_frame = traced_recv_frame

    # -- shard.worker: the handle span, the reply bytes, and the flush
    # at the end of the forked child's life (it leaves by os._exit).
    _wrap(
        worker_mod.ShardWorker,
        "handle",
        "worker.handle",
        extra=lambda self, request, *_: request.get("op"),
    )

    def traced_reply(sock, payload):
        data = encode_frame(payload)
        record = RECORDER.open("wire.reply", len(data))
        try:
            sock.sendall(data)
        finally:
            RECORDER.close(record)

    worker_mod.send_frame = traced_reply
    worker_main = router_mod.worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(conn, config):
        RECORDER.spans = []
        RECORDER._local = threading.local()
        RECORDER.role = "worker"
        RECORDER.shard = int(config["shard"])
        try:
            worker_main(conn, config)
        finally:
            RECORDER.flush(spans_dir)

    router_mod.worker_main = traced_worker_main

    # -- service.store and service.wal
    for method in ("insert", "delete", "apply_batch", "commit_batch", "log_reject", "query"):
        _wrap(DurableStore, method, f"store.{method}")
    _wrap(
        DurableStore,
        "open",
        "store.open",
        after=lambda store, _: store.recovery.replayed,
    )
    _wrap(WriteAheadLog, "append", "wal.append")
    _wrap(WriteAheadLog, "sync", "wal.sync")
    _wrap(os, "fsync", "os.fsync")

    # -- core.engine, core.ctm, core.readcache, compile
    _wrap(engine_mod.WeakInstanceEngine, "query", "engine.query")
    _wrap(engine_mod.WeakInstanceEngine, "insert", "engine.insert")
    _wrap(
        engine_mod.WeakInstanceEngine,
        "batch",
        "engine.batch",
        extra=lambda self, state, updates, *_: len(updates),
    )
    _wrap(engine_mod.WeakInstanceEngine, "plan", "engine.plan")
    _wrap(engine_mod, "total_projection_plan", "engine.plan_miss")
    _wrap(
        InsertMaintainer,
        "block_batch",
        "ctm.block_batch",
        extra=lambda self, substate, block_index, operations, *_: len(operations),
    )
    _wrap(
        ReadCache,
        "get",
        "readcache.get",
        after=lambda rows, _: rows is not None,
    )
    _wrap(compile_pkg, "compile_expression", "compile.build")
    _wrap(CompiledProgram, "run_decoded", "compile.run")
