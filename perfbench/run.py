"""chordkit benchmark: one workload, one seed, one measurement window.

Run from the repository root::

    python3 perfbench/run.py --workload experiment --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics, with the
tracing overhead. The last line of standard output is the result as JSON;
the line before it records the inputs, the environment and the quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: on a small shared machine, two threads made back-to-back
# runs differ by 9-16%. Set before numpy is first imported.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

IMPORT_REPEATS = 7
IMPORT_SNIPPET = ("import chordkit, numpy; from chordkit.vocab import get_vocabulary; "
                  "get_vocabulary(170); get_vocabulary(26)")

END_TO_END = {  # name -> unit
    "setup_s": "s", "run_s": "s", "song_ms_p50": "ms", "song_ms_p90": "ms",
    "frame_acc": "%", "root_wcsr": "%", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}

# Spans and counters reported per traced operation (median over operations).
PER_LAYER = [
    "synthgen.generate_song.self_s", "synthgen.generate_song.calls",
    "features.render_synthetic_cqt.self_s", "features.render_synthetic_cqt.frames_per_s",
    "features.load_features.self_s", "features.load_features.bytes",
    "features.pitch_shift_cqt.self_s", "features.pitch_shift_cqt.calls",
    "harte.parse_chord.self_s", "harte.parse_chord.calls",
    "annotate.load_annotation.self_s",
    "annotate.frame_labels.self_s", "annotate.frame_labels.frames_per_s",
    "vocab.id_info.calls", "vocab.transpose_id.calls", "vocab.map_label.calls",
    "model.root_targets.self_s", "model.root_targets.rows",
    "model.pitch_targets.self_s", "model.total_loss.self_s",
    "model.loss_and_grads.self_s", "model.loss_and_grads.calls",
    "model.loss_and_grads.frames_per_s",
    "model.train.self_s", "model.train.total_s", "model.evaluate.self_s",
    "model.expected_counts.self_s", "model.dataset_frame_ids.self_s",
    "model.forward.self_s", "model.forward.frames_per_s",
    "decode.viterbi_smooth.self_s", "decode.viterbi_smooth.frames_per_s",
    "decode.incorrect_regions.self_s", "decode.count_transitions.self_s",
    *(f"metrics.wcsr.{kind}.self_s"
      for kind in ("acc", "root", "third", "seventh", "mirex", "majmin")),
    "metrics.compare_labels.calls", "metrics.class_wise_scores.self_s",
    "metrics.confusion_matrix.self_s", "metrics.path_from_frames.self_s",
    "metrics.path_from_annotation.self_s",
]
# Spans reported from the set-up repeats (median over repeats).
SETUP_LAYER = ["features.render_synthetic_cqt.self_s", "model.train.total_s"]


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"self_s": "s", "total_s": "s", "overhead_s": "s", "frames_per_s": "frames/s",
            "bytes": "bytes"}.get(suffix, "count")


def per_layer_names() -> list[str]:
    return PER_LAYER + [f"setup.{name}" for name in SETUP_LAYER] + ["trace.overhead_s"]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import chordkit and build both
    vocabularies: the start-up cost every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
        "machine": platform.machine(),
    }


def layer_metrics(tracer, runs: list[str], names: list[str]) -> dict[str, float]:
    """Median over ``runs`` of each per-layer figure; rates from self time."""
    from spans import layer_totals

    per_run = []
    for run in runs:
        totals = layer_totals(tracer.spans, tracer.counts, run)
        figures = {}
        for name in names:
            base, _, suffix = name.rpartition(".")
            if suffix == "frames_per_s":
                own = totals.get(f"{base}.self_s", 0.0)
                figures[name] = totals.get(f"{base}.frames", 0.0) / own if own > 0 else 0.0
            else:
                figures[name] = totals.get(name, 0.0)
        per_run.append(figures)
    return {name: median([f[name] for f in per_run]) for name in names}


@dataclass
class Measured:
    """One operation's timing and check results; its outputs are dropped."""

    run: str
    traced: bool
    seconds: float
    wall: float  # the operation plus its checks and labelling passes
    attempted: int
    failed: int
    completed: bool
    passes: list = field(default_factory=list)  # per pass, each song's latency in ms
    frames: int = 0
    frame_acc: float = 0.0
    root_wcsr: float = 0.0


def measure(bench, run: str, tracer, passes: int) -> Measured:
    """Time one operation (traced if a tracer is given), check it, and label
    its test songs ``passes`` more times for per-song latency samples."""
    begin = time.perf_counter()
    if tracer:
        tracer.start(run)
    start = time.perf_counter()
    try:
        outcome = bench.operation()
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        outcome = None
    finally:
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.stop()
    n = bench.sizes["songs"] if bench.per_song else 1
    if outcome is None:
        return Measured(run, tracer is not None, elapsed, time.perf_counter() - begin,
                        n, n, False)
    run_failures = bench.failures(outcome)
    labelled = [outcome.songs] + bench.relabel(passes)
    song_failures = [m for songs in labelled for song in songs for m in song.failures]
    for message in run_failures + song_failures:
        print(f"check failed ({run}): {message}", file=sys.stderr)
    if bench.per_song and not run_failures:
        failed = sum(bool(song.failures) for song in outcome.songs)
    else:
        failed = n if run_failures or song_failures else 0
    return Measured(run, tracer is not None, elapsed - outcome.check_seconds,
                    time.perf_counter() - begin, n, failed, True,
                    [[1000.0 * song.seconds for song in songs] for songs in labelled],
                    outcome.frames, outcome.frame_acc, outcome.wcsr["root"])


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes: dict | None = None) -> dict:
    """Set up, measure for ``seconds``, check, and return the result record."""
    from spans import Tracer
    from workloads import SIZES, WORKLOADS

    sizes = SIZES[workload] if sizes is None else sizes
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    tracer = Tracer() if trace else None
    try:
        imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
        bench = WORKLOADS[workload](seed, sizes, workdir)
        prepare = []
        for k in range(bench.setup_repeats):
            if tracer:
                tracer.start(f"setup{k}")
            start = time.perf_counter()
            try:
                bench.setup()
            finally:
                prepare.append(time.perf_counter() - start)
                if tracer:
                    tracer.stop()
        setup_s = median(imports) + median(prepare)

        # A run holds at least two operations, and another one only if it is
        # expected to end within the window.
        ops: list[Measured] = []
        window = time.perf_counter()
        while (len(ops) < 2 or time.perf_counter() - window
               + median([op.wall for op in ops]) < seconds):
            traced = trace and len(ops) % 2 == 1  # traced runs alternate with untraced
            ops.append(measure(bench, f"op{len(ops)}", tracer if traced else None,
                               0 if trace else bench.song_passes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [op for op in ops if op.completed]
    untraced = [op for op in done if not op.traced]
    if not untraced:
        raise RuntimeError("no untraced operation completed")
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    run_seconds = [op.seconds for op in untraced]
    passes = [ms for op in untraced for ms in op.passes]
    # every pass labels the same songs; each song's latency is its mean
    song_ms = [statistics.fmean(samples) for samples in zip(*passes)]
    last = done[-1]
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "inputs": {**sizes, "frames_scored": last.frames},
        "env": environment(),
        "operations": len(ops),
        "run_s": {"n": len(run_seconds), "quartiles": quartiles(run_seconds),
                  "per_op": run_seconds},
        "song_ms": {"songs": len(song_ms), "passes": len(passes),
                    "quartiles": quartiles(song_ms),
                    "per_pass_p50": [median(ms) for ms in passes]},
        "setup_s": {"imports": imports, "prepare": prepare},
        "failed_ratio": failed / attempted,
    }
    if trace:
        traced_runs = [op.run for op in done if op.traced]
        traced_s = [op.seconds for op in done if op.traced]
        metrics = layer_metrics(tracer, traced_runs, PER_LAYER)
        setup = layer_metrics(tracer, [f"setup{k}" for k in range(bench.setup_repeats)],
                              SETUP_LAYER)
        metrics.update({f"setup.{name}": value for name, value in setup.items()})
        metrics["trace.overhead_s"] = median(traced_s) - median(run_seconds)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
        units = {name: layer_unit(name) for name in metrics}
    else:
        # On a shared machine a single short sample runs in a fast or a slow
        # mode, 1.3-1.9x apart, and the mix changes within seconds. The
        # fastest repeat flips between the modes from run to run; a mean over
        # samples spread through the run moves with the mix only. So a song's
        # latency is the mean of its samples, and run_s the median operation.
        metrics = {
            "setup_s": setup_s,
            "run_s": median(run_seconds),
            "song_ms_p50": median(song_ms),
            "song_ms_p90": statistics.quantiles(song_ms, n=10)[8],
            "frame_acc": last.frame_acc,
            "root_wcsr": last.root_wcsr,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("experiment", "train_hidden_shift", "infer_eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chordkit" / "__init__.py").is_file():
        print(f"chordkit sources not found under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record["detail"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
