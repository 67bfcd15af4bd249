"""Equality fingerprint of chordkit's CLI outputs on fixed seeds.

Runs one fixed-seed pipeline through the public CLI, with the package taken
from SRC, in a new temporary directory, and prints one JSON line per output:
its path and sha256, and for a refused command its exit code and error name.
With ``--against SRC2`` it runs the pipeline on both trees and lists only the
outputs that differ, with the largest relative difference of each ``.npz``
and ``.cqtf`` file; it exits 1 when any output differs.

    python tools/fingerprint.py src
    python tools/fingerprint.py src --against ../parent/src

The pipeline: ``--help`` of the CLI and of each command; ``synth`` at two
noise levels; logistic and hidden ``train`` with pitch shift; frame-wise,
beat-wise and ``perfect`` ``predict``; ``smooth`` with Viterbi, a low beta,
max-marginals and on pooled rows; ``report`` on every estimate set;
``eval`` under all six comparators; ``augment``; ``check-align``; two
refused commands. Every command runs in one child process, so what each
prints to stdout and stderr is kept as an output too (``log/``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
COMMANDS = ("synth", "train", "predict", "smooth", "report", "eval", "augment", "check-align")
COMPARATORS = ("acc", "root", "third", "seventh", "mirex", "majmin")
BEAT_DIVISIONS = ("0.25", "0.5", "1", "2")
# one BLAS thread and a fixed hash seed, so both trees see the same arithmetic
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


def pipeline() -> None:
    """Run every command in the current directory; print one JSON line per
    command with its argv, exit code and, if it failed, the error name."""
    from chordkit.cli import main

    step = 0

    def cli(*argv) -> int:
        nonlocal step
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
        log = Path("log")
        log.mkdir(exist_ok=True)
        (log / f"{step:03d}_{argv[0]}.out").write_text(out.getvalue())
        (log / f"{step:03d}_{argv[0]}.err").write_text(err.getvalue())
        step += 1
        record = {"command": argv, "exit": code}
        if code:
            lines = err.getvalue().strip().splitlines()
            record["error"] = json.loads(lines[-1])["error"] if lines else None
        print(json.dumps(record), flush=True)
        return code

    def must(*argv) -> None:
        if cli(*argv) != 0:
            raise SystemExit(f"fingerprint pipeline: {' '.join(map(str, argv))} failed")

    def collect(name: str, runs: str, songs) -> str:
        """Copy each song's run_dir/labels.tsv to name/song.tsv, for report."""
        Path(name).mkdir()
        for song in songs:
            shutil.copy(Path(runs) / song / "labels.tsv", Path(name) / f"{song}.tsv")
        return name

    for command in ((), *((name,) for name in COMMANDS)):
        must(*command, "--help")
    must("synth", "--n", 6, "--duration", 20, "--seed", 3, "--out", "data")
    must("synth", "--n", 4, "--duration", 10, "--seed", 5, "--noise", 4, "--out", "noisy")
    songs = [p.stem for p in sorted(Path("data").glob("*.tsv"))]
    Path("beats").mkdir()
    for song in json.loads(Path("data/dataset.json").read_text())["songs"]:
        period = 60.0 / song["bpm"]
        Path(f"beats/{song['name']}.txt").write_text(
            "".join(f"{i * period:.6f}\n" for i in range(int(20.0 / period) + 1)))
    must("train", "--data", "data", "--epochs", 3, "--alpha", 0.3, "--gamma", 0.7,
         "--shift-prob", 0.5, "--out", "run")
    must("train", "--data", "data", "--arch", "hidden", "--hidden-units", 16, "--context", 2,
         "--epochs", 2, "--shift-prob", 0.5, "--out", "run_hidden")
    must("train", "--data", "noisy", "--vocab", 26, "--epochs", 2, "--out", "run_26")

    estimates = []
    for run in ("run", "run_hidden"):
        for song in songs:
            features = f"data/{song}.cqtf"
            must("predict", "--model", f"{run}/model.npz", "--features", features,
                 "--out", f"{run}_pred/{song}")
            for division in BEAT_DIVISIONS:
                must("predict", "--model", f"{run}/model.npz", "--features", features,
                     "--beat-file", f"beats/{song}.txt", "--beat-division", division,
                     "--out", f"{run}_beat{division}/{song}")
            must("predict", "--model", f"{run}/model.npz", "--features", features,
                 "--beat-division", "perfect", "--ann", f"data/{song}.tsv",
                 "--out", f"{run}_perfect/{song}")
            must("predict", "--model", f"{run}/model.npz", "--features", features,
                 "--beat-division", "perfect", "--ann", f"{run}_pred/{song}/labels.tsv",
                 "--out", f"{run}_perfect_own/{song}")
            post = f"{run}_pred/{song}/posteriors.npz"
            must("smooth", "--post", post, "--out", f"{run}_smooth/{song}")
            must("smooth", "--post", post, "--beta", 0.001, "--out", f"{run}_low/{song}")
            must("smooth", "--post", post, "--max-marginal", "--out", f"{run}_mm/{song}")
            must("smooth", "--post", f"{run}_beat0.5/{song}/posteriors.npz",
                 "--out", f"{run}_beat_smooth/{song}")
        for kind in ("pred", *(f"beat{d}" for d in BEAT_DIVISIONS), "perfect", "perfect_own",
                     "smooth", "low", "mm", "beat_smooth"):
            estimates.append(collect(f"est_{run}_{kind}", f"{run}_{kind}", songs))
    noisy = [p.stem for p in sorted(Path("noisy").glob("*.tsv"))]
    for song in noisy:
        must("predict", "--vocab", 26, "--model", "run_26/model.npz",
             "--features", f"noisy/{song}.cqtf", "--out", f"run_26_pred/{song}")
    for est in estimates:
        must("report", "--ref-dir", "data", "--est-dir", est, "--out", f"report_{est}")
    must("report", "--vocab", 26, "--ref-dir", "noisy", "--est-dir",
         collect("est_run_26", "run_26_pred", noisy), "--out", "report_est_run_26")
    for kind in COMPARATORS:
        for est in ("est_run_pred", "est_run_smooth"):
            must("eval", "--ref", f"data/{songs[0]}.tsv", "--est", f"{est}/{songs[0]}.tsv",
                 "--metric", kind)
    for shift in (2, -3):
        must("augment", "--features", f"data/{songs[0]}.cqtf", "--ann", f"data/{songs[0]}.tsv",
             "--shift", shift, "--out", "aug")
    must("augment", "--features", f"data/{songs[1]}.cqtf",
         "--ann", f"est_run_smooth/{songs[1]}.tsv", "--shift", 1, "--out", "aug_est")
    for song in songs:
        must("check-align", "--features", f"data/{song}.cqtf", "--ann", f"data/{song}.tsv")
    # refused: options the chosen mode does not read
    cli("train", "--data", "data", "--arch", "logistic", "--context", 2, "--out", "refused")
    cli("predict", "--model", "run/model.npz", "--features", f"data/{songs[0]}.cqtf",
        "--beat-division", "0.5", "--out", "refused")


def run_pipeline(src: Path, workdir: Path) -> tuple[dict[str, str], list[dict]]:
    """({output path: sha256}, refused commands) of the pipeline on ``src``."""
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": os.pathsep.join([str(src), str(TOOLS)])}
    child = subprocess.run([sys.executable, "-c", "import fingerprint; fingerprint.pipeline()"],
                           cwd=workdir, env=env, capture_output=True, text=True)
    if child.returncode != 0:
        raise SystemExit(f"pipeline on {src} failed:\n{child.stderr}")
    commands = [json.loads(line) for line in child.stdout.splitlines()]
    hashes = {path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(workdir.rglob("*")) if path.is_file()}
    return hashes, [c for c in commands if c["exit"] != 0]


def _arrays(path: Path, src: Path) -> dict[str, np.ndarray]:
    if path.suffix == ".npz":
        with np.load(path) as saved:
            return {name: saved[name] for name in saved.files}
    sys.path.insert(0, str(src))
    try:
        from chordkit.features import load_features
    finally:
        sys.path.remove(str(src))
    return {"data": load_features(path).data}


def max_relative_difference(a: Path, b: Path, src: Path) -> float:
    """Largest |x - y| / max(|x|, |y|) over the numeric arrays of two files;
    inf where their array names, shapes or non-numeric values differ."""
    left, right = _arrays(a, src), _arrays(b, src)
    if left.keys() != right.keys():
        return float("inf")
    worst = 0.0
    for name, x in left.items():
        y = right[name]
        if x.shape != y.shape:
            return float("inf")
        if not (np.issubdtype(x.dtype, np.number) and np.issubdtype(y.dtype, np.number)):
            if not np.array_equal(x, y):
                return float("inf")
            continue
        x, y = x.astype(np.float64), y.astype(np.float64)
        diff, scale = np.abs(x - y), np.maximum(np.abs(x), np.abs(y))
        relative = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
        worst = max(worst, float(relative.max(initial=0.0)))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="the src/ directory holding chordkit")
    parser.add_argument("--against", type=Path, help="a second src/ to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "first"
        first.mkdir()
        hashes, refused = run_pipeline(args.src.resolve(), first)
        if args.against is None:
            for path, digest in hashes.items():
                print(json.dumps({"path": path, "sha256": digest}))
            for record in refused:
                print(json.dumps(record))
            return 0
        second = Path(tmp) / "second"
        second.mkdir()
        other, other_refused = run_pipeline(args.against.resolve(), second)
        differ = 0
        for path in sorted(hashes.keys() | other.keys()):
            if hashes.get(path) == other.get(path):
                continue
            differ += 1
            line = {"path": path, "sha256": hashes.get(path), "against": other.get(path)}
            if path in hashes and path in other and path.endswith((".npz", ".cqtf")):
                line["max_rel_diff"] = max_relative_difference(first / path, second / path,
                                                               args.src.resolve())
            print(json.dumps(line))
        if refused != other_refused:
            differ += 1
            print(json.dumps({"refused": refused, "against": other_refused}))
        print(f"{len(hashes)} outputs, {differ} differ", file=sys.stderr)
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
