"""Outside-in tracer for chordkit's public functions.

The tracer replaces a function with a wrapper in every loaded chordkit
module that binds it, so calls made through from-imports and package
re-exports are seen too. Functions called once per frame or once per id
only bump a counter; the others record a span (name, start, end, parent
span, run id). Spans stay in memory until the benchmark writes them out.
Every replaced attribute is restored when tracing stops.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

# Functions that get a span, per chordkit module. A work extractor turns
# (args, result) into the amount of work done, reported as a rate or a size.
SPANNED = {
    "synthgen": ("generate_song",),
    "features": ("render_synthetic_cqt", "load_features", "pitch_shift_cqt"),
    "harte": ("parse_chord",),
    "annotate": ("load_annotation", "frame_labels"),
    "model": ("root_targets", "pitch_targets", "total_loss", "loss_and_grads",
              "train", "evaluate", "expected_counts", "dataset_frame_ids",
              "forward"),
    "decode": ("viterbi_smooth", "incorrect_regions", "count_transitions"),
    "metrics": ("wcsr", "class_wise_scores", "confusion_matrix",
                "path_from_frames", "path_from_annotation"),
}

# Functions called once per frame or once per id: a call counter only.
COUNTED = {
    "vocab": ("id_info", "transpose_id", "map_label"),
    "metrics": ("compare_labels",),
}

# span name -> (work unit, extractor(args, result) -> amount)
WORK = {
    "features.render_synthetic_cqt": ("frames", lambda a, r: r.n_frames),
    "features.load_features": ("bytes", lambda a, r: r.data.nbytes),
    "annotate.frame_labels": ("frames", lambda a, r: len(r)),
    "model.root_targets": ("rows", lambda a, r: len(r)),
    "model.loss_and_grads": ("frames", lambda a, r: len(a[1])),
    "model.forward": ("frames", lambda a, r: len(r[0])),
    "decode.viterbi_smooth": ("frames", lambda a, r: len(r)),
}


def _span_name(qualified: str, args) -> str:
    # WCSR is reported per comparator: wcsr(kind, songs, vocab)
    if qualified == "metrics.wcsr":
        return f"metrics.wcsr.{args[0].value}"
    return qualified


@dataclass
class Span:
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    work: float = 0.0


class Tracer:
    """Collects spans and call counts while its patches are installed."""

    package = "chordkit"

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._run = ""

    # --- patching ---

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def start(self, run: str) -> None:
        """Install the wrappers; spans and counts are filed under ``run``."""
        if self._patches:
            raise RuntimeError("tracer already started")
        self._run = run
        self.counts.setdefault(run, Counter())
        modules = self._modules()
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module_name, functions in table.items():
                home = sys.modules[f"{self.package}.{module_name}"]
                for fn_name in functions:
                    original = getattr(home, fn_name)
                    wrapper = make(f"{module_name}.{fn_name}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patches.append((module, attr, original))
                                setattr(module, attr, wrapper)

    def stop(self) -> None:
        """Restore every attribute the tracer replaced."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _span_wrapper(self, qualified: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(qualified)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(_span_name(qualified, args), self._run,
                        stack[-1] if stack else None, clock())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if work is not None:
                span.work = float(work[1](args, result))
            return result

        return wrapper

    def _count_wrapper(self, qualified: str, fn):
        counts = self.counts[self._run]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[qualified] += 1
            return fn(*args, **kwargs)

        return wrapper

    def records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_totals(spans: list[Span], counts: dict[str, Counter], run: str) -> dict[str, float]:
    """Per-layer figures of one run: ``<name>.self_s``, ``.total_s``,
    ``.calls`` and ``.<work unit>`` for spans, ``<name>.calls`` for counters."""
    totals: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        if span.run != run:
            continue
        totals[f"{span.name}.self_s"] += own
        totals[f"{span.name}.total_s"] += span.end - span.start
        totals[f"{span.name}.calls"] += 1
        if span.name in WORK:
            totals[f"{span.name}.{WORK[span.name][0]}"] += span.work
    for name, n in counts.get(run, {}).items():
        totals[f"{name}.calls"] += n
    return dict(totals)
