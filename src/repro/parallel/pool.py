"""Crash-safe shard execution: the parent-side worker supervisor.

``ProcessPoolExecutor`` treats one dead worker as a broken pool — every
in-flight shard is lost and the caller gets ``BrokenProcessPool``. For the
paper's setting (hours-long scans over expensive metrics) that turns a
single OOM kill into a full restart. This module replaces the executor
with an explicit supervisor over ``multiprocessing`` *spawn* processes,
one per in-flight shard, each reporting home over its own pipe. That
structure is what makes recovery possible:

* **crash detection** — a worker that dies without delivering its result
  (SIGKILL, OOM, native crash) closes its pipe; the supervisor sees EOF
  and knows exactly which shard was lost;
* **timeouts** — a worker overrunning ``shard_timeout`` is killed
  individually, not the whole pool;
* **retry with backoff** — a recoverably-failed shard is re-queued after
  an exponential delay, up to ``max_retries`` attempts, with a fresh
  metric copy each time so the rescan is deterministic;
* **graceful degradation** — when retries are exhausted the shard runs
  inline in the parent (no process boundary left to crash);
* **pool-wide deadline** — a global wall-clock limit kills the remaining
  workers cleanly instead of orphaning them.

Failures that retrying cannot fix — invalid parameters, the quarantine
circuit breaker, tree-invariant violations, a global deadline — propagate
immediately. Each attempt runs :func:`repro.parallel.worker.run_shard`
over its :class:`~repro.parallel.worker.ShardTask`, and the supervisor
books its recovery counters into an
:class:`~repro.robustness.report.IngestReport` of its own
(:attr:`ShardSupervisor.report`) that the caller merges into the build's.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Any

from repro.exceptions import (
    CheckpointError,
    DeadlineExceededError,
    EmptyDatasetError,
    ParameterError,
    QuarantineOverflowError,
    TreeInvariantError,
    WorkerCrashError,
)
from repro.parallel.worker import run_shard
from repro.robustness.report import IngestReport

__all__ = ["ShardFailure", "ShardSupervisor"]

#: Failures no retry can fix: bad configuration, circuit breakers, and the
#: global wall-clock deadline (a rescan cannot run the clock backwards; the
#: NCD budget, by contrast, *is* retryable because checkpoint resume turns
#: each retry's fresh budget window into forward progress).
_NON_RETRYABLE = (
    ParameterError,
    QuarantineOverflowError,
    TreeInvariantError,
    EmptyDatasetError,
    CheckpointError,
    DeadlineExceededError,
)

#: Seconds between supervisor bookkeeping passes (timeout/deadline checks).
_TICK_SECONDS = 0.05

#: Grace period for joining a process that already reported (or was killed).
_JOIN_SECONDS = 5.0


@dataclass
class ShardFailure:
    """One failed shard attempt, as observed by the supervisor."""

    shard_id: int
    #: Zero-based attempt that failed.
    attempt: int
    #: ``"crash"`` (process death), ``"timeout"``, or ``"error"``.
    kind: str
    #: Exception repr or exit-code description.
    detail: str


@dataclass
class _ShardState:
    """Mutable per-shard progress (attempt counter, backoff release time)."""

    task: Any
    attempt: int = 0
    not_before: float = 0.0


@dataclass
class _LiveWorker:
    """One running worker process and the shard it carries."""

    state: _ShardState
    process: Any
    started: float


def _worker_entry(conn: Any, task: Any) -> None:
    """Spawn target: run the shard, send ``("result"|"error", payload)``.

    Module-level so the spawn start method can pickle it. A worker that
    dies before (or while) sending leaves the parent an EOF on ``conn`` —
    that silence *is* the crash signal.
    """
    try:
        message: tuple[str, Any] = ("result", run_shard(task))
    except BaseException as exc:  # delivered to the parent, not lost
        message = ("error", exc)
    try:
        conn.send(message)
    except Exception:
        if message[0] == "error":
            raise
        # The result itself would not pickle; report that instead of dying
        # silently (which would read as a crash and trigger a futile retry).
        conn.send(("error", WorkerCrashError("shard result failed to serialize")))
    finally:
        conn.close()


class ShardSupervisor:
    """Run shard tasks to completion through crashes, hangs, and retries.

    Parameters
    ----------
    tasks:
        One :class:`~repro.parallel.worker.ShardTask` per shard.
    n_jobs:
        Max concurrently live worker processes; ``<= 1`` runs every shard
        inline (same retry semantics, no process boundary).
    max_retries:
        Recoverable-failure retries per shard before the inline fallback.
    backoff:
        Retry ``i`` is scheduled ``backoff * 2**i`` seconds after the
        failure. In pool mode the delay is non-blocking (other shards
        keep running); inline it sleeps.
    shard_timeout:
        Per-attempt wall-clock limit; an overrunning worker is killed and
        the shard retried. ``None`` disables.
    deadline_seconds:
        Pool-wide wall-clock limit measured from :meth:`run`; on breach
        every live worker is killed and
        :class:`~repro.exceptions.DeadlineExceededError` propagates.
    prepare_attempt:
        ``(task, attempt) -> task`` hook called before *every* attempt —
        the build uses it to refresh the metric copy (determinism), point
        ``resume_from`` at the shard's own checkpoint, and let a chaos
        policy corrupt that checkpoint.
    on_result:
        Called with each :class:`ShardResult` as it arrives (the build
        re-books NCD here); an exception aborts the whole pool.
    on_retry:
        ``(task, failure, delay) -> None`` observability hook.
    sleep:
        Injectable sleep for deterministic tests.
    """

    def __init__(
        self,
        tasks: list[Any],
        *,
        n_jobs: int,
        max_retries: int = 2,
        backoff: float = 0.25,
        shard_timeout: float | None = None,
        deadline_seconds: float | None = None,
        prepare_attempt: Callable[[Any, int], Any] | None = None,
        on_result: Callable[[Any], None] | None = None,
        on_retry: Callable[[Any, ShardFailure, float], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.tasks = list(tasks)
        self.n_jobs = int(n_jobs)
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.shard_timeout = shard_timeout
        self.deadline_seconds = deadline_seconds
        self.prepare_attempt = prepare_attempt
        self.on_result = on_result
        self.on_retry = on_retry
        self._sleep = sleep
        self._deadline_at: float | None = None
        #: Recovery counters (``shards_retried``, ``workers_crashed``,
        #: ``shards_resumed``, ``backoff_seconds_total``); the rest stay 0.
        self.report = IngestReport()
        #: Every failed attempt, in observation order.
        self.failures: list[ShardFailure] = []

    # ------------------------------------------------------------------
    def run(self) -> list[Any]:
        """Execute every shard; returns results in task order."""
        if self.deadline_seconds is not None:
            self._deadline_at = time.monotonic() + float(self.deadline_seconds)
        states = [_ShardState(task) for task in self.tasks]
        if self.n_jobs <= 1 or len(states) <= 1:
            results = self._run_inline(states)
        else:
            results = self._run_pool(states)
        return [results[state.task.shard_id] for state in states]

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------
    def _check_deadline(self) -> None:
        if self._deadline_at is not None and time.monotonic() > self._deadline_at:
            raise DeadlineExceededError(
                f"pool-wide deadline of {self.deadline_seconds:.3g}s exceeded; "
                "live workers were cancelled cleanly"
            )

    def _prepare(self, state: _ShardState) -> Any:
        task = state.task
        task.attempt = state.attempt
        if self.prepare_attempt is not None:
            task = self.prepare_attempt(task, state.attempt)
            state.task = task
        return task

    def _complete(
        self, state: _ShardState, result: Any, results: dict[int, Any]
    ) -> None:
        if result.resumed_at is not None:
            self.report.shards_resumed += 1
        results[state.task.shard_id] = result
        if self.on_result is not None:
            self.on_result(result)

    def _after_failure(
        self, state: _ShardState, kind: str, detail: str
    ) -> tuple[str, float]:
        """Record a failed attempt; decide ``("retry", delay)`` or
        ``("fallback", 0)``."""
        if kind in ("crash", "timeout"):
            self.report.workers_crashed += 1
        failure = ShardFailure(state.task.shard_id, state.attempt, kind, detail)
        self.failures.append(failure)
        if state.attempt < self.max_retries:
            delay = self.backoff * (2**state.attempt)
            state.attempt += 1
            state.not_before = time.monotonic() + delay
            self.report.shards_retried += 1
            self.report.backoff_seconds_total += delay
            if self.on_retry is not None:
                self.on_retry(state.task, failure, delay)
            return ("retry", delay)
        return ("fallback", 0.0)

    def _fallback(self, state: _ShardState, results: dict[int, Any]) -> None:
        """Graceful degradation: the shard's last stand, in-parent."""
        task = self._prepare(state)
        self._complete(state, run_shard(task), results)

    # ------------------------------------------------------------------
    # Inline backend (n_jobs <= 1) — same retry semantics, no processes
    # ------------------------------------------------------------------
    def _run_inline(self, states: list[_ShardState]) -> dict[int, Any]:
        results: dict[int, Any] = {}
        for state in states:
            while state.task.shard_id not in results:
                self._check_deadline()
                task = self._prepare(state)
                try:
                    result = run_shard(task)
                except _NON_RETRYABLE:
                    raise
                except Exception as exc:
                    action, delay = self._after_failure(state, "error", repr(exc))
                    if action == "retry":
                        self._sleep(delay)
                        continue
                    self._fallback(state, results)
                    continue
                self._complete(state, result, results)
        return results

    # ------------------------------------------------------------------
    # Pool backend
    # ------------------------------------------------------------------
    def _run_pool(self, states: list[_ShardState]) -> dict[int, Any]:
        context = multiprocessing.get_context("spawn")
        results: dict[int, Any] = {}
        pending: deque[_ShardState] = deque(states)
        waiting: list[_ShardState] = []
        live: dict[Any, _LiveWorker] = {}
        try:
            while pending or waiting or live:
                self._check_deadline()
                now = time.monotonic()
                # Promote shards whose backoff elapsed.
                still_waiting: list[_ShardState] = []
                for state in waiting:
                    (pending.append if state.not_before <= now else still_waiting.append)(
                        state
                    )
                waiting = still_waiting
                # Launch up to n_jobs workers.
                while pending and len(live) < self.n_jobs:
                    self._launch(context, pending.popleft(), live)
                if not live:
                    # Everything is backing off: sleep to the next release.
                    wake = min(state.not_before for state in waiting)
                    self._sleep(max(wake - time.monotonic(), 0.0) + 0.001)
                    continue
                for conn in _wait_connections(list(live), timeout=_TICK_SECONDS):
                    self._collect(conn, live.pop(conn), results, waiting)
                self._kill_stragglers(live, results, waiting)
        finally:
            for conn, worker in live.items():
                self._kill(worker.process)
                conn.close()
        return results

    def _launch(
        self, context: Any, state: _ShardState, live: dict[Any, _LiveWorker]
    ) -> None:
        task = self._prepare(state)
        recv_conn, send_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_entry, args=(send_conn, task)
        )
        process.daemon = True
        process.start()
        # Close the parent's copy of the write end, so a dead worker's pipe
        # reads as EOF instead of blocking forever.
        send_conn.close()
        live[recv_conn] = _LiveWorker(state=state, process=process, started=time.monotonic())

    def _collect(
        self,
        conn: Any,
        worker: _LiveWorker,
        results: dict[int, Any],
        waiting: list[_ShardState],
    ) -> None:
        try:
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):
                self._kill(worker.process)
                code = worker.process.exitcode
                self._pool_failure(
                    worker.state,
                    "crash",
                    f"worker exited with code {code} before delivering shard "
                    f"{worker.state.task.shard_id}",
                    results,
                    waiting,
                )
                return
            self._kill(worker.process)  # joins; kills only if it lingers
            if kind == "result":
                self._complete(worker.state, payload, results)
            elif isinstance(payload, _NON_RETRYABLE):
                raise payload
            else:
                self._pool_failure(worker.state, "error", repr(payload), results, waiting)
        finally:
            conn.close()

    def _pool_failure(
        self,
        state: _ShardState,
        kind: str,
        detail: str,
        results: dict[int, Any],
        waiting: list[_ShardState],
    ) -> None:
        action, _ = self._after_failure(state, kind, detail)
        if action == "retry":
            waiting.append(state)
        else:
            self._fallback(state, results)

    def _kill_stragglers(
        self,
        live: dict[Any, _LiveWorker],
        results: dict[int, Any],
        waiting: list[_ShardState],
    ) -> None:
        if self.shard_timeout is None:
            return
        now = time.monotonic()
        for conn in [c for c, w in live.items() if now - w.started > self.shard_timeout]:
            worker = live.pop(conn)
            self._kill(worker.process)
            conn.close()
            self._pool_failure(
                worker.state,
                "timeout",
                f"shard {worker.state.task.shard_id} exceeded its "
                f"{self.shard_timeout:.3g}s timeout",
                results,
                waiting,
            )

    @staticmethod
    def _kill(process: Any) -> None:
        """Join a finished process, escalating to SIGKILL if it lingers."""
        process.join(timeout=0 if process.is_alive() else _JOIN_SECONDS)
        if process.is_alive():
            process.kill()
            process.join(timeout=_JOIN_SECONDS)
