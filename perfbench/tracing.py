"""Benchmark-side spans around the calls into each layer.

A traced run installs wrappers on the layers' public entry points; the
library itself is not changed. Each span records its name, the op it
belongs to, start, end and parent, plus the kernel seconds (from the
metered kernel) and the counted NCD (from the active ledger) spent inside
it. Spans stay in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import repro.pipelines.cluster as cluster_module
from repro.core.preclusterer import PreClusterer
from repro.hac import AgglomerativeClusterer
from repro.index import MetricIndex
from repro.metrics.base import active_ledger

from metered import METER

__all__ = ["SpanRecorder", "LAYER_CALLS"]

#: (span name, owner, attribute): the public calls each layer is entered by.
#: The span's layer is the part of its name before the first dot.
LAYER_CALLS: tuple[tuple[str, Any, str], ...] = (
    ("core.fit", PreClusterer, "fit"),
    ("core.partial_fit", PreClusterer, "partial_fit"),
    ("clarans.global_phase", PreClusterer, "global_phase"),
    ("index.adopt", PreClusterer, "index"),
    ("hac.fit", AgglomerativeClusterer, "fit"),
    # cluster_dataset calls the name it imported, so patch that binding.
    ("pipelines.label", cluster_module, "nearest_assignment"),
    ("index.nearest", MetricIndex, "nearest"),
    ("index.within", MetricIndex, "within"),
)


def _ledger_total() -> int:
    ledger = active_ledger()
    return ledger.total if ledger is not None else 0


class SpanRecorder:
    """In-memory span log with install/uninstall of the layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record: dict[str, Any] = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(index)
        kernel0, ncd0 = METER.seconds, _ledger_total()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record["start"] = start - self._t0
            record["end"] = end - self._t0
            record["kernel_s"] = METER.seconds - kernel0
            record["ncd"] = _ledger_total() - ncd0

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, owner, attr in LAYER_CALLS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _layer_of(self, index: int | None) -> str | None:
        if index is None:
            return None
        return str(self.spans[index]["name"]).split(".")[0]

    def outermost(self, layer: str) -> list[dict[str, Any]]:
        """Spans of ``layer`` not nested inside another span of it."""
        return [
            s
            for s in self.spans
            if s["name"].split(".")[0] == layer and self._layer_of(s["parent"]) != layer
        ]

    def named(self, name: str) -> list[dict[str, Any]]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, spans: list[dict[str, Any]], key: str = "") -> float:
        """Summed duration (or summed ``key``) of ``spans``."""
        if key:
            return float(sum(s[key] for s in spans))
        return float(sum(s["end"] - s["start"] for s in spans))
