"""Spans around the program's public functions, recorded from outside it.

A Tracer replaces module attributes with wrappers that record a span per
call: name, start, end, parent span and the benchmark round. A layer's
self time is its span minus the time its child spans cover. Spans stay in
memory and are written out once, when the traced run ends.
"""
from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, round)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.round = -1
        self._stack: List[List] = []  # [span index, start, child time]
        self._patched: List[Tuple[object, str, object]] = []

    def _enter(self) -> None:
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, perf_counter(), 0.0])

    def _exit(self, name: str) -> None:
        end = perf_counter()
        index, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[index] = (name, start, end,
                             parent[0] if parent is not None else -1,
                             self.round)
        self.self_time[name] += duration - child
        self.calls[name] += 1

    def wrap(self, fn: Callable, name: str,
             label: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span; label(args) may refine the span name."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if label is None else f"{name}.{label(args)}"
            tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span)

        return traced

    def patch(self, owner: object, attr: str, name: str,
              label: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, label))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,round\n")
            for i, (name, start, end, parent, rnd) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{rnd}\n")


def patch_program(tracer: Tracer, gossipsim) -> None:
    """Wrap every layer boundary the per-layer metrics are cut at."""
    core, protocols, harness, cli = (gossipsim.core, gossipsim.protocols,
                                     gossipsim.harness, gossipsim.cli)

    def algorithm(args) -> str:
        return args[0].algorithm.value

    tracer.patch(core.RngStream, "active_generator", "core.rng")
    tracer.patch(core.RngStream, "protocol_generator", "core.rng")
    tracer.patch(protocols, "sample_active", "core.sample_active")
    tracer.patch(protocols, "step_naive", "protocols.step_naive")
    tracer.patch(gossipsim, "run", "protocols.run", algorithm)
    tracer.patch(harness, "run", "protocols.run", algorithm)
    tracer.patch(harness, "run_experiment", "harness.run_experiment")
    tracer.patch(cli, "main", "cli.main")
