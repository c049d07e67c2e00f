"""Deterministic fault injection for exercising the robustness layer.

These are first-class library citizens (not test-only helpers) because
operators need them too: before trusting a guarded configuration in
production, replay a workload through a :class:`FlakyMetric` and confirm the
scan completes with the expected quarantine/retry accounting. Everything is
driven by a seeded generator, so a given ``(seed, failure_rate)`` produces
the exact same fault sequence on every run — the property the
checkpoint/resume tests rely on.
"""

from __future__ import annotations

import os
import signal
import time
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.exceptions import ParameterError
from repro.metrics.base import DistanceFunction
from repro.utils.rng import ensure_rng

__all__ = [
    "ChaosPolicy",
    "FaultInjector",
    "FlakyMetric",
    "InjectedFaultError",
    "SlowMetric",
]


class InjectedFaultError(RuntimeError):
    """The error a :class:`FlakyMetric` raises on an injected failure.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: injected
    faults simulate third-party breakage (network timeouts, native-code
    crashes), which arrive as arbitrary exception types.
    """


class FaultInjector:
    """A seeded stream of fail/succeed decisions.

    Parameters
    ----------
    failure_rate:
        Probability that a fresh call is chosen to fail.
    seed:
        Seed/generator for the decision stream.
    fail_streak:
        Once a call is chosen to fail, the next ``fail_streak - 1`` calls
        fail too. With a retrying guard, a streak of ``k`` forces exactly
        ``k`` failed attempts before a retry succeeds — letting tests pin
        down backoff behavior precisely.
    start_after:
        Number of initial calls that always succeed (lets a scan build a
        healthy tree before faults begin).
    """

    def __init__(
        self,
        failure_rate: float = 0.05,
        seed: int | np.random.Generator | None = 0,
        fail_streak: int = 1,
        start_after: int = 0,
    ):
        if not 0.0 <= failure_rate <= 1.0:
            raise ParameterError(f"failure_rate must be in [0, 1], got {failure_rate}")
        if fail_streak < 1:
            raise ParameterError(f"fail_streak must be >= 1, got {fail_streak}")
        if start_after < 0:
            raise ParameterError(f"start_after must be >= 0, got {start_after}")
        self.failure_rate = float(failure_rate)
        self.fail_streak = int(fail_streak)
        self.start_after = int(start_after)
        self._rng = ensure_rng(seed)
        self._streak_left = 0
        #: Total decisions made.
        self.n_calls = 0
        #: Decisions that came out as failures.
        self.n_injected = 0

    def should_fail(self) -> bool:
        """Decide the fate of the next call (advances the seeded stream)."""
        self.n_calls += 1
        if self._streak_left > 0:
            self._streak_left -= 1
            self.n_injected += 1
            return True
        if self.n_calls <= self.start_after:
            return False
        if float(self._rng.random()) < self.failure_rate:
            self._streak_left = self.fail_streak - 1
            self.n_injected += 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector(rate={self.failure_rate}, calls={self.n_calls}, "
            f"injected={self.n_injected})"
        )


class FlakyMetric(DistanceFunction):
    """Wrap a healthy metric with deterministic, seeded misbehavior.

    Parameters
    ----------
    inner:
        The correct metric to corrupt.
    injector:
        The decision stream; built from ``failure_rate``/``seed`` when
        omitted.
    mode:
        How an injected call misbehaves: ``"raise"`` throws
        :class:`InjectedFaultError`; ``"nan"`` returns NaN; ``"negative"``
        returns ``-1.0`` (both value modes violate the metric contract and
        should be caught by a :class:`~repro.robustness.GuardedMetric`).
    poison:
        Optional predicate ``poison(obj) -> bool``; any call touching a
        poisoned object *always* raises, independent of the injector —
        modeling corrupt records rather than transient backend faults.
    """

    _MODES = ("raise", "nan", "negative")

    def __init__(
        self,
        inner: DistanceFunction,
        injector: FaultInjector | None = None,
        *,
        failure_rate: float = 0.05,
        seed: int | np.random.Generator | None = 0,
        mode: str = "raise",
        poison: Any=None,
    ):
        super().__init__()
        if not isinstance(inner, DistanceFunction):
            raise ParameterError("inner must be a DistanceFunction")
        if mode not in self._MODES:
            raise ParameterError(f"mode must be one of {self._MODES}, got {mode!r}")
        self.inner = inner
        self.injector = injector if injector is not None else FaultInjector(
            failure_rate=failure_rate, seed=seed
        )
        self.mode = mode
        self.poison = poison
        self.name = f"flaky({inner.name})"

    def _distance(self, a: Any, b: Any) -> float:
        if self.poison is not None and (self.poison(a) or self.poison(b)):
            raise InjectedFaultError("poisoned object cannot be measured")
        if self.injector.should_fail():
            if self.mode == "raise":
                raise InjectedFaultError(
                    f"injected transient fault #{self.injector.n_injected}"
                )
            return float("nan") if self.mode == "nan" else -1.0
        # Wrapper hook-to-hook delegation: the flaky layer must not double
        # count — the public wrapper entered by the caller already counted.
        return self.inner._distance(a, b)  # hook delegation; the public wrapper counts


class SlowMetric(DistanceFunction):
    """Wrap a metric with a fixed per-call delay — a hang simulator.

    Used by :class:`ChaosPolicy` to make one shard's metric pathologically
    slow so the shard supervisor's per-shard timeout and pool-wide deadline
    handling can be exercised deterministically.
    """

    def __init__(self, inner: DistanceFunction, delay_seconds: float, sleep: Any = time.sleep):
        super().__init__()
        if not isinstance(inner, DistanceFunction):
            raise ParameterError("inner must be a DistanceFunction")
        if delay_seconds < 0:
            raise ParameterError(f"delay_seconds must be >= 0, got {delay_seconds}")
        self.inner = inner
        self.delay_seconds = float(delay_seconds)
        self._sleep = sleep
        self.name = f"slow({inner.name})"

    def _distance(self, a: Any, b: Any) -> float:
        self._sleep(self.delay_seconds)
        # Hook-to-hook delegation, same no-double-count rule as FlakyMetric.
        return self.inner._distance(a, b)  # hook delegation; the public wrapper counts


def _splice_innermost(
    metric: DistanceFunction,
    wrap: "Any",
) -> DistanceFunction:
    """Wrap the *innermost* metric of a ``.inner`` chain.

    Fault wrappers must sit below any :class:`GuardedMetric` /
    cache in the chain — wrapping outermost would bypass exactly the
    budget/validation machinery the chaos drill is supposed to exercise.
    """
    parent: DistanceFunction | None = None
    node = metric
    while isinstance(getattr(node, "inner", None), DistanceFunction):
        parent = node
        node = node.inner
    wrapped = wrap(node)
    if parent is None:
        return wrapped
    parent.inner = wrapped
    return metric


class ChaosPolicy:
    """A seeded, reproducible schedule of process-level faults.

    The chaos drill for parallel builds: hand one of these to
    :func:`repro.parallel.parallel_fit` and it will — on the shards and
    attempts you name — kill the worker mid-scan with SIGKILL, splice a
    flaky or slow wrapper under the shard's metric, or corrupt the shard's
    checkpoint before the retry reads it. Every decision is explicit or
    seeded, so a failing drill replays exactly.

    Parameters
    ----------
    kill_at:
        ``{shard_id: object_index}`` — the worker scanning that shard dies
        (os-level ``SIGKILL``, no cleanup) just before ingesting the given
        object. Only fires in a real worker process: the policy is *armed*
        with the parent PID by ``parallel_fit``, and a process whose PID
        matches the armed parent never kills itself.
    kill_attempts:
        Attempts (per shard) on which the kill fires; retries with
        ``attempt >= kill_attempts`` scan unharmed.
    flaky_shards, flaky_rate, flaky_mode, flaky_streak, flaky_attempts:
        Shards whose metric is wrapped in a :class:`FlakyMetric` (seeded
        per ``(seed, shard, attempt)``) for attempts below
        ``flaky_attempts``.
    slow_shards, slow_seconds, slow_attempts:
        Shards whose metric is wrapped in a :class:`SlowMetric` adding
        ``slow_seconds`` per distance call for attempts below
        ``slow_attempts``.
    corrupt_checkpoints:
        Shards whose on-disk checkpoint is overwritten with seeded garbage
        before their first retry — exercising the corrupt-checkpoint
        recovery path (discard and rescan).
    seed:
        Root seed for the flaky injectors and the corruption bytes.
    """

    def __init__(
        self,
        *,
        kill_at: dict[int, int] | None = None,
        kill_attempts: int = 1,
        flaky_shards: Sequence[int] = (),
        flaky_rate: float = 0.05,
        flaky_mode: str = "raise",
        flaky_streak: int = 1,
        flaky_attempts: int = 1,
        slow_shards: Sequence[int] = (),
        slow_seconds: float = 0.05,
        slow_attempts: int = 1,
        corrupt_checkpoints: Sequence[int] = (),
        seed: int = 0,
    ):
        if kill_attempts < 0:
            raise ParameterError(f"kill_attempts must be >= 0, got {kill_attempts}")
        if flaky_attempts < 0 or slow_attempts < 0:
            raise ParameterError("flaky_attempts and slow_attempts must be >= 0")
        if not 0.0 <= flaky_rate <= 1.0:
            raise ParameterError(f"flaky_rate must be in [0, 1], got {flaky_rate}")
        if flaky_mode not in FlakyMetric._MODES:
            raise ParameterError(
                f"flaky_mode must be one of {FlakyMetric._MODES}, got {flaky_mode!r}"
            )
        if slow_seconds < 0:
            raise ParameterError(f"slow_seconds must be >= 0, got {slow_seconds}")
        self.kill_at = {int(k): int(v) for k, v in (kill_at or {}).items()}
        self.kill_attempts = int(kill_attempts)
        self.flaky_shards = frozenset(int(s) for s in flaky_shards)
        self.flaky_rate = float(flaky_rate)
        self.flaky_mode = flaky_mode
        self.flaky_streak = int(flaky_streak)
        self.flaky_attempts = int(flaky_attempts)
        self.slow_shards = frozenset(int(s) for s in slow_shards)
        self.slow_seconds = float(slow_seconds)
        self.slow_attempts = int(slow_attempts)
        self.corrupt_checkpoints = frozenset(int(s) for s in corrupt_checkpoints)
        self.seed = int(seed)
        self._armed_pid: int | None = None

    # ------------------------------------------------------------------
    # Arming (parent side)
    # ------------------------------------------------------------------
    def arm(self, parent_pid: int) -> None:
        """Record the supervisor's PID; kills only fire in *other* PIDs.

        An unarmed policy never kills — so accidentally running one inline
        cannot take down the calling process.
        """
        self._armed_pid = int(parent_pid)

    def _may_kill_here(self) -> bool:
        return self._armed_pid is not None and os.getpid() != self._armed_pid

    # ------------------------------------------------------------------
    # Worker-side hooks
    # ------------------------------------------------------------------
    def wrap_metric(
        self, metric: DistanceFunction, shard_id: int, attempt: int
    ) -> DistanceFunction:
        """Splice scheduled flaky/slow wrappers under the shard's metric."""
        if shard_id in self.flaky_shards and attempt < self.flaky_attempts:
            injector = FaultInjector(
                failure_rate=self.flaky_rate,
                seed=int(
                    np.random.SeedSequence(
                        [self.seed, shard_id, attempt]
                    ).generate_state(1)[0]
                ),
                fail_streak=self.flaky_streak,
            )
            metric = _splice_innermost(
                metric,
                lambda inner: FlakyMetric(inner, injector, mode=self.flaky_mode),
            )
        if shard_id in self.slow_shards and attempt < self.slow_attempts:
            metric = _splice_innermost(
                metric, lambda inner: SlowMetric(inner, self.slow_seconds)
            )
        return metric

    def stream(self, objects: Iterable, shard_id: int, attempt: int) -> Iterable:
        """Wrap a shard's object stream with the scheduled mid-scan kill."""
        kill_index = self.kill_at.get(shard_id)
        if kill_index is None or attempt >= self.kill_attempts or not self._may_kill_here():
            return objects

        def doomed() -> Iterator:
            for i, obj in enumerate(objects):
                if i == kill_index:
                    # SIGKILL, not sys.exit: the drill is an uncatchable,
                    # no-cleanup process death, exactly like the OOM killer.
                    os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
                yield obj

        return doomed()

    # ------------------------------------------------------------------
    # Parent-side hooks
    # ------------------------------------------------------------------
    def before_retry(self, shard_id: int, attempt: int, checkpoint_path: str | None) -> None:
        """Corrupt the shard's checkpoint ahead of its first retry."""
        if (
            shard_id not in self.corrupt_checkpoints
            or attempt != 1
            or checkpoint_path is None
            or not os.path.exists(checkpoint_path)
        ):
            return
        rng = ensure_rng(
            int(np.random.SeedSequence([self.seed, shard_id, 0xC0]).generate_state(1)[0])
        )
        size = os.path.getsize(checkpoint_path)
        junk = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
        with open(checkpoint_path, "r+b") as fh:
            fh.seek(max(size // 2, 0))
            fh.write(junk)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        if self.kill_at:
            parts.append(f"kill_at={self.kill_at}")
        if self.flaky_shards:
            parts.append(f"flaky={sorted(self.flaky_shards)}")
        if self.slow_shards:
            parts.append(f"slow={sorted(self.slow_shards)}")
        if self.corrupt_checkpoints:
            parts.append(f"corrupt={sorted(self.corrupt_checkpoints)}")
        return f"ChaosPolicy({', '.join(parts)}, seed={self.seed})"
