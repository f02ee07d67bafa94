"""The persistent synthesis server: ``repro serve``.

A long-lived asyncio front end (stdlib only, built directly on
:func:`asyncio.start_server`) accepting synthesis jobs over HTTP and
dispatching the CPU-bound flows to a warm worker pool:

``POST /jobs``
    Submit one job (the :class:`~repro.service.jobs.JobRequest` JSON).
    The response streams NDJSON events (``application/x-ndjson``): an
    ``accepted`` event with the job-cache verdict, one ``pass`` event
    per settled pass while the flow runs, and a terminal ``done`` /
    ``error`` event.  Malformed requests are rejected with HTTP 400 and
    a single JSON error object before any work is scheduled.

``GET /healthz``
    Liveness: uptime, pool mode and size, jobs in flight.

``GET /metrics``
    The :class:`~repro.service.metrics.ServiceMetrics` snapshot: job
    counters by status, cache hit rate, per-pass cumulative wall-clock,
    budget-abort counters.

Isolation model: each job is parsed and cache-keyed in the server
process, then executed by :func:`~repro.service.worker.execute_job` in a
pool worker under its own :class:`~repro.resilience.Budget` deadline and
a transactional :class:`~repro.rewriting.passes.PassManager` -- a
crashing, over-budget or verification-failing job returns a typed error
event while its neighbours run on.  With ``workers > 0`` the pool is a
``ProcessPoolExecutor`` whose workers warm the NPN/structure libraries
once (initializer) and share them read-only across jobs; ``workers = 0``
runs jobs in threads of the server process (tests, debugging) -- safe
because the ambient mutation observers are context-scoped and every job
builds its own engines.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import queue
import signal
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Mapping

from ..io import ParseError
from .cache import JobCache, job_cache_key
from .jobs import (
    JobRequest,
    JobValidationError,
    event_accepted,
    event_done,
    event_error,
)
from .metrics import ServiceMetrics
from .worker import execute_job, warm_worker

__all__ = ["SynthesisServer", "run_server"]

#: How long one blocking queue poll waits before re-checking the future.
_DRAIN_POLL_S = 0.05


class SynthesisServer:
    """One synthesis service instance (see the module docstring).

    ``workers > 0`` selects the process pool (that many worker
    processes); ``workers = 0`` executes jobs in server-process threads.
    ``port = 0`` binds an ephemeral port -- read the bound one back from
    :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8390,
        workers: int = 0,
        cache_capacity: int = 256,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.host = host
        self.port = port
        self.workers = workers
        self.cache = JobCache(capacity=cache_capacity)
        self.metrics = ServiceMetrics(self.cache)
        self._job_ids = itertools.count(1)
        self._server: asyncio.AbstractServer | None = None
        self._pool: Executor | None = None
        self._drain_pool: ThreadPoolExecutor | None = None
        self._manager: Any = None
        self._started_at = time.time()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Warm the pool and start accepting connections."""
        if self.workers > 0:
            import multiprocessing

            # Spawn, not fork: by the time the first job arrives this
            # process runs an event loop, pool threads and the manager --
            # forking a worker from that state inherits held locks and
            # deadlocks.  Spawned workers import the module fresh and
            # each enumerates its own exact tables in the initializer.
            context = multiprocessing.get_context("spawn")
            self._manager = context.Manager()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context, initializer=warm_worker
            )
        else:
            # Thread mode: jobs share this process's warmed libraries.
            warm_worker()
            self._pool = ThreadPoolExecutor(
                max_workers=4, thread_name_prefix="repro-job"
            )
        self._drain_pool = ThreadPoolExecutor(
            max_workers=16, thread_name_prefix="repro-drain"
        )
        self._server = await asyncio.start_server(self._handle_client, self.host, self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self, grace: float = 5.0) -> None:
        """Stop accepting connections and shut the pools down.

        In process mode this returns only once the pool's worker
        processes have exited, so a stopped server leaves none behind:
        queued jobs are cancelled, and a job already running gets
        ``grace`` seconds to finish before every worker process is
        terminated.  Thread-mode job threads are not waited for.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            pool, self._pool = self._pool, None
            if isinstance(pool, ProcessPoolExecutor):
                # The executor has no public handle on its worker processes.
                workers = list((getattr(pool, "_processes", None) or {}).values())
                shutdown = asyncio.ensure_future(
                    asyncio.to_thread(pool.shutdown, wait=True, cancel_futures=True)
                )
                try:
                    await asyncio.wait_for(asyncio.shield(shutdown), grace)
                except asyncio.TimeoutError:
                    # The pool notices its terminated workers and finishes
                    # the shutdown.
                    for process in workers:
                        process.terminate()
                    await shutdown
            else:
                pool.shutdown(wait=False, cancel_futures=True)
        if self._drain_pool is not None:
            self._drain_pool.shutdown(wait=False, cancel_futures=True)
            self._drain_pool = None
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None

    @property
    def mode(self) -> str:
        """``"process"`` or ``"thread"`` -- how jobs execute."""
        return "process" if self.workers > 0 else "thread"

    def _new_events_queue(self) -> Any:
        """A queue the worker can reach: manager proxy or plain Queue."""
        if self._manager is not None:
            return self._manager.Queue()
        return queue.Queue()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                await self._respond_json(writer, 400, {"error": "malformed request line"})
                return
            method, path = parts[0].upper(), parts[1]
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            body = await reader.readexactly(length) if length else b""
            await self._route(writer, method, path, body)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(
        self, writer: asyncio.StreamWriter, method: str, path: str, body: bytes
    ) -> None:
        if method == "GET" and path == "/healthz":
            await self._respond_json(writer, 200, self._health())
            return
        if method == "GET" and path == "/metrics":
            await self._respond_json(writer, 200, self.metrics.as_dict())
            return
        if method == "POST" and path == "/jobs":
            await self._handle_job(writer, body)
            return
        await self._respond_json(
            writer, 404, {"error": f"no route for {method} {path}"}
        )

    def _health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime": time.time() - self._started_at,
            "mode": self.mode,
            "workers": self.workers if self.workers > 0 else 4,
            "jobs_in_flight": self.metrics.jobs_in_flight,
            "cache_size": len(self.cache),
        }

    @staticmethod
    async def _respond_json(
        writer: asyncio.StreamWriter, status: int, payload: Mapping[str, Any]
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    @staticmethod
    async def _start_stream(writer: asyncio.StreamWriter) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

    @staticmethod
    async def _write_event(writer: asyncio.StreamWriter, event: Mapping[str, Any]) -> bool:
        """Write one NDJSON line; False once the client has gone away."""
        try:
            writer.write(json.dumps(event).encode("utf-8") + b"\n")
            await writer.drain()
            return True
        except (ConnectionResetError, BrokenPipeError):
            return False

    # ------------------------------------------------------------------
    # Job handling
    # ------------------------------------------------------------------

    async def _handle_job(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        job_id = f"job-{next(self._job_ids)}"
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            await self._respond_json(
                writer, 400, event_error(job_id, "invalid", f"malformed JSON body: {error}")
            )
            return
        # Validate up front -- script names, kind composition, field
        # types -- and parse the circuit once here, for the cache key.
        try:
            request = JobRequest.from_payload(payload)
            network = request.parse_network()
        except (JobValidationError, ParseError, ValueError) as error:
            await self._respond_json(writer, 400, event_error(job_id, "invalid", str(error)))
            return

        key = job_cache_key(network, request)
        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.job_accepted(cached=True)
            await self._start_stream(writer)
            await self._write_event(writer, event_accepted(job_id, "hit", key))
            await self._write_event(writer, event_done(job_id, cached, cached=True))
            return

        self.metrics.job_accepted(cached=False)
        await self._start_stream(writer)
        await self._write_event(writer, event_accepted(job_id, "miss", key))
        result = await self._dispatch(writer, job_id, request)
        status = str(result.get("status", "internal"))
        flow = result.get("flow")
        if status == "ok":
            self.cache.put(key, result)
            await self._write_event(writer, event_done(job_id, result))
        else:
            terminal = event_error(
                job_id, status, str(result.get("message", "job failed"))
            )
            if flow is not None:
                terminal["flow"] = flow
            if "output" in result:
                terminal["output"] = result["output"]
                terminal["output_format"] = result["output_format"]
            await self._write_event(writer, terminal)
        self.metrics.job_finished(status, flow if isinstance(flow, Mapping) else None)

    async def _dispatch(
        self, writer: asyncio.StreamWriter, job_id: str, request: JobRequest
    ) -> dict[str, Any]:
        """Run one job in the pool, streaming its events as they arrive."""
        assert self._pool is not None, "call start() first"
        loop = asyncio.get_running_loop()
        events = self._new_events_queue()
        try:
            future = loop.run_in_executor(
                self._pool, execute_job, job_id, request.as_payload(), events
            )
        except RuntimeError as error:  # pool already shut down
            return {"status": "internal", "message": str(error)}
        pump = asyncio.ensure_future(self._pump_events(writer, events, future))
        try:
            result = await future
        except Exception as error:  # worker process died (BrokenProcessPool etc.)
            result = {
                "status": "internal",
                "message": f"{type(error).__name__}: {error}",
            }
        finally:
            await pump
        if not isinstance(result, dict):
            return {"status": "internal", "message": "worker returned a malformed result"}
        return result

    async def _pump_events(
        self, writer: asyncio.StreamWriter, events: Any, future: "asyncio.Future[Any]"
    ) -> None:
        """Forward worker events to the client until the job settles."""
        loop = asyncio.get_running_loop()
        client_alive = True

        def blocking_get() -> Any:
            try:
                return events.get(True, _DRAIN_POLL_S)
            except queue.Empty:
                return None

        while True:
            event = await loop.run_in_executor(self._drain_pool, blocking_get)
            if event is not None:
                if client_alive:
                    client_alive = await self._write_event(writer, event)
                continue
            if future.done():
                # Drain the stragglers without blocking, then stop.
                while True:
                    try:
                        event = events.get_nowait()
                    except queue.Empty:
                        return
                    if client_alive:
                        client_alive = await self._write_event(writer, event)


def run_server(
    host: str = "127.0.0.1",
    port: int = 8390,
    workers: int = 0,
    cache_capacity: int = 256,
) -> int:
    """Blocking entry point: serve until interrupted (returns exit code)."""

    async def _amain() -> None:
        server = SynthesisServer(
            host=host, port=port, workers=workers, cache_capacity=cache_capacity
        )
        await server.start()
        pool = f"{server.workers} process workers" if workers > 0 else "in-process thread pool"
        print(
            f"repro serve listening on http://{server.host}:{server.port} "
            f"({pool}, job cache {server.cache.capacity})",
            flush=True,
        )
        # SIGTERM is a graceful stop, like Ctrl-C: cancelling the serve
        # task lets ``close()`` shut the worker pool and the manager down
        # instead of leaving them orphaned.
        serving = asyncio.ensure_future(server.serve_forever())
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, serving.cancel)
        except NotImplementedError:  # pragma: no cover - no signal handlers on this platform
            pass
        try:
            await serving
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        pass
    return 0
