"""Outside-in tracing of the wavemoment layers.

``Tracer.install`` replaces public functions with wrappers that record a span
(name, start, end, parent span, request id) per call.  Nothing under ``src/``
changes: each wrapper is installed where the caller looks the name up,
because the modules bind names with ``from .x import y``.  Spans stay in
memory; self times are computed when the run ends.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import json
import time

import numpy as np

# (module, attribute, span name).  One function bound in two namespaces is
# wrapped in both under the same span name.
TRACED = (
    ("wavemoment.coupling", "analyze", "coupling.analyze"),
    ("wavemoment.coupling", "decompose", "coupling.decompose"),
    ("wavemoment.spectrum", "build_frequencies", "spectrum.build_frequencies"),
    ("wavemoment.spectrum", "detect_collisions", "spectrum.detect_collisions"),
    ("wavemoment.spectrum", "build_edd", "spectrum.build_edd"),
    ("wavemoment.moments", "target_to_modal", "moments.target_to_modal"),
    ("wavemoment.moments", "moments_from_target", "moments.moments_from_target"),
    ("wavemoment.moments", "assemble_gram", "moments.assemble_gram"),
    ("wavemoment.moments", "combo_l2_norm", "moments.combo_l2_norm"),
    ("wavemoment.moments", "synthesize", "moments.synthesize"),
    ("wavemoment.moments", "realify", "moments.realify"),
    ("wavemoment.moments", "cond_estimate_1norm", "linalg.cond_estimate_1norm"),
    ("wavemoment.moments", "solve_hermitian", "linalg.solve_hermitian"),
    ("wavemoment.linalg", "cond_estimate_1norm", "linalg.cond_estimate_1norm"),
    ("wavemoment.linalg", "lu_factor", "linalg.lu_factor"),
    ("wavemoment.waveform", "verify", "waveform.verify"),
    ("wavemoment.waveform", "duhamel_exact", "waveform.duhamel_exact"),
    ("wavemoment.waveform", "reconstruct", "waveform.reconstruct"),
)

ROOT = "cli.run"


@dataclasses.dataclass
class Span:
    request: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Spans and counters for the commands run while installed.

    ``request`` is the id shared by the spans of one command; the caller
    sets it before each command.
    """

    def __init__(self):
        self.spans: list = []
        self.request = 0
        self.gram_dim = 0
        self.dense_bytes = 0
        self.worst = {}
        self._open: list = []
        self._saved: list = []

    def _note_worst(self, key, value):
        if value is not None and np.isfinite(value):
            self.worst[key] = max(self.worst.get(key, 0.0), float(value))

    def _after(self, name, args, result):
        # counts and quality numbers read off the call, never stored arrays
        if name == "moments.assemble_gram":
            m = result.gram.shape[0]
            self.gram_dim = max(self.gram_dim, m)
            self.dense_bytes += 16 * m * m
            self._note_worst("cond_estimate", result.cond_estimate)
        elif name == "moments.combo_l2_norm":
            m = np.size(args[0])
            if m:
                self.dense_bytes += 16 * m * m
        elif name == "moments.synthesize":
            self._note_worst("moment_residual", result.moment_residual)
            self._note_worst("realification_residual",
                             result.realification_residual)
        elif name == "waveform.verify":
            self._note_worst("max_rel_error", result.max_rel_error)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(self.request, name,
                        self._open[-1] if self._open else None,
                        time.perf_counter())
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            self._after(name, args, result)
            return result
        return traced

    def install(self):
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> tuple:
        """Per span name: (total self seconds, call count)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        self_s = collections.defaultdict(float)
        calls = collections.Counter()
        for span, inner in zip(self.spans, child):
            self_s[span.name] += span.end - span.start - inner
            calls[span.name] += 1
        return self_s, calls

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
