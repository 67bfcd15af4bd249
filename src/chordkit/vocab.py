"""Closed chord vocabularies, the integer id scheme and per-class tables.

Chord ids follow ``quality_index * 12 + root`` with two trailing sentinels:
``C - 2`` for N (no chord) and ``C - 1`` for X (unknown). The large
vocabulary has 14 qualities (C = 170), the small one major/minor only
(C = 26). Every vocabulary maps a label by one rule (:func:`map_label`);
``reduce_to_majmin`` is recorded in the manifest, but mapping does not
read it.

:attr:`Vocabulary.tables` is the single source of per-class meaning: each
class's root, pitch classes, maj/min reduction, confusion-axis index and
every comparator's verdict, as arrays indexed by chord id. The model's
targets, the metrics and the class-count transposition all read them
instead of re-deriving a class's meaning one id at a time. They are built
from ``qualities`` and ``templates`` on first use, once per distinct
vocabulary.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from . import harte
from .errors import BadManifest, IdOutOfRange
from .harte import ChordKind, ChordLabel, QUALITY_TEMPLATES

MANIFEST_VERSION = 1

_TRIAD_FALLBACK = ("maj", "min", "dim", "aug")

# Comparator rules, applied per quality when the verdict tables are built.
_THIRD_SLOT = (3, 4, 2, 5)  # checked in this order; min before maj before sus
_SEVENTH_SLOT = (11, 10, 9)
_SEVENTH_REF_QUALITIES = {"maj", "min", "maj7", "min7", "7"}
_MAJ_TRIAD, _MIN_TRIAD = QUALITY_TEMPLATES["maj"], QUALITY_TEMPLATES["min"]


@dataclass(frozen=True)
class Vocabulary:
    """An ordered set of chord qualities plus the N/X sentinels."""

    qualities: tuple[str, ...]
    templates: tuple[frozenset[int], ...]
    # Written to the manifest, whose hash every saved 26-class checkpoint and
    # posteriorgram records; map_label does not read it.
    reduce_to_majmin: bool = False

    @property
    def size(self) -> int:
        return 12 * len(self.qualities) + 2

    @property
    def n_id(self) -> int:
        return self.size - 2

    @property
    def x_id(self) -> int:
        return self.size - 1

    def quality_index(self, quality: str) -> int:
        return self.qualities.index(quality)

    def chord_id(self, root: int, quality: str) -> int:
        return self.quality_index(quality) * 12 + root % 12

    @property
    def tables(self) -> VocabTables:
        """Per-class arrays, built on first use and shared by equal vocabularies."""
        return _build_tables(self)


@dataclass(frozen=True, eq=False)
class VocabTables:
    """Per-class arrays of one vocabulary, indexed by chord id; read-only.

    ``root``: [C] 14-way root class, 0-11 then 12 for N and 13 for X; it is
    also the root axis of confusion matrices.
    ``pitch``: [C, 12] 0/1 pitch-class membership, all-zero for N and X.
    ``majmin``: [C] id of the class's reduction in the 26-class maj/min
    vocabulary (its X where neither triad is contained).
    ``quality``: [C] quality axis of confusion matrices: the quality's
    index, then N, then X.
    ``shifted``: [12, C] ``shifted[k % 12, c] == transpose_id(c, k)``.
    ``verdicts``: comparator name -> [C, C] int8 verdict of (reference,
    estimate): 1 correct, 0 incorrect, -1 undefined.
    """

    root: np.ndarray
    pitch: np.ndarray
    majmin: np.ndarray
    quality: np.ndarray
    shifted: np.ndarray
    verdicts: dict[str, np.ndarray]


def vocabulary_170() -> Vocabulary:
    names = tuple(harte.QUALITY_ORDER)
    return Vocabulary(
        qualities=names,
        templates=tuple(QUALITY_TEMPLATES[q] for q in names),
    )


def vocabulary_26() -> Vocabulary:
    return Vocabulary(
        qualities=("maj", "min"),
        templates=(QUALITY_TEMPLATES["maj"], QUALITY_TEMPLATES["min"]),
        reduce_to_majmin=True,
    )


_VOCAB_26 = vocabulary_26()


@functools.cache
def _build_tables(vocab: Vocabulary) -> VocabTables:
    C, n, x = vocab.size, vocab.n_id, vocab.x_id
    ids = np.arange(C)
    chord = ids < n
    root = np.where(chord, ids % 12, ids - n + 12)
    quality = np.where(chord, ids // 12, ids - n + len(vocab.qualities))

    def per_id(per_quality, sentinel):
        """Spread one value per quality over its 12 ids; N and X get sentinel."""
        return np.concatenate([np.repeat(per_quality, 12), [sentinel, sentinel]])

    def slot(template, candidates):
        return next((s for s in candidates if s in template), -1)

    members = np.zeros((len(vocab.templates), 12), dtype=bool)
    for qi, template in enumerate(vocab.templates):
        members[qi, sorted(template)] = True
    pitch = np.zeros((C, 12))
    pitch[:n] = members[quality[:n, None], (np.arange(12) - root[:n, None]) % 12]

    # 0 for maj, 12 for min: the quality's offset in the 26-class vocabulary
    small_offset = per_id([0 if _MAJ_TRIAD <= t else 12 if _MIN_TRIAD <= t else -1
                           for t in vocab.templates], -1)
    majmin = np.where(small_offset >= 0, small_offset + root, _VOCAB_26.x_id)
    majmin[n] = _VOCAB_26.n_id

    shifted = np.where(chord, ids - root + (root + np.arange(12)[:, None]) % 12, ids)

    third = per_id([slot(t, _THIRD_SLOT) for t in vocab.templates], -1)
    seventh = per_id([slot(t, _SEVENTH_SLOT) for t in vocab.templates], -1)
    seventh_ref = per_id([q in _SEVENTH_REF_QUALITIES for q in vocab.qualities], True)

    def same(per_class):
        return per_class[:, None] == per_class[None, :]

    # N and X have their own root classes and no slots, so a sentinel agrees
    # with another class only when both are N (or both X, an undefined row)
    same_third = same(root) & same(third)
    both_n = (ids == n)[:, None] & (ids == n)[None, :]
    rules = {  # name -> (correct, rows where the reference makes it undefined)
        "acc": (same(ids), ids == x),
        "root": (same(root), ids == x),
        "third": (same_third, ids == x),
        "seventh": (same_third & same(seventh), ~seventh_ref | (ids == x)),
        "mirex": ((pitch @ pitch.T >= 3) | both_n, ids == x),
        "majmin": (same(majmin), majmin == _VOCAB_26.x_id),
    }
    verdicts = {}
    for name, (correct, undefined) in rules.items():
        table = correct.astype(np.int8)
        table[undefined] = -1
        verdicts[name] = table
    for array in (root, pitch, majmin, quality, shifted, *verdicts.values()):
        array.flags.writeable = False
    return VocabTables(root=root, pitch=pitch, majmin=majmin, quality=quality,
                       shifted=shifted, verdicts=verdicts)


def map_label(label: ChordLabel, vocab: Vocabulary) -> int:
    """Map any label that parse_chord returns into the vocabulary: its exact
    template, else the first of maj, min, dim, aug in the vocabulary that it
    holds, else X."""
    if label.kind is ChordKind.NO_CHORD:
        return vocab.n_id
    if label.kind is ChordKind.UNKNOWN:
        return vocab.x_id

    relative = harte.relative_pitch_classes(label)
    for index, template in enumerate(vocab.templates):
        if relative == template:
            return index * 12 + label.root % 12
    for quality in _TRIAD_FALLBACK:
        if quality in vocab.qualities and QUALITY_TEMPLATES[quality] <= relative:
            return vocab.chord_id(label.root, quality)
    return vocab.x_id


def id_info(chord_id: int, vocab: Vocabulary):
    """Inverse of the id scheme: (root, quality) tuple, or 'N'/'X'."""
    check_ids(chord_id, vocab)
    if chord_id == vocab.n_id:
        return "N"
    if chord_id == vocab.x_id:
        return "X"
    return chord_id % 12, vocab.qualities[chord_id // 12]


def id_label(chord_id: int, vocab: Vocabulary) -> ChordLabel:
    """ChordLabel for a vocabulary class id."""
    info = id_info(chord_id, vocab)
    if info == "N":
        return harte.NO_CHORD
    if info == "X":
        return harte.UNKNOWN_CHORD
    root, quality = info
    return ChordLabel(kind=ChordKind.CHORD, root=root, quality=quality)


def check_ids(ids, vocab: Vocabulary, error: type[Exception] = IdOutOfRange) -> np.ndarray:
    """``ids`` as an int64 array; raises ``error`` naming the first id outside [0, C)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= vocab.size):
        raise error(f"id {ids[(ids < 0) | (ids >= vocab.size)][0]} outside [0, {vocab.size})")
    return ids


def transpose_id(chord_id: int, k: int, vocab: Vocabulary) -> int:
    """Rotate the root by k within the same quality; N/X are fixed points."""
    check_ids(chord_id, vocab)
    if chord_id >= vocab.n_id:
        return chord_id
    quality_index, root = divmod(chord_id, 12)
    return quality_index * 12 + (root + k) % 12


# --- manifest serialization ---

def manifest_text(vocab: Vocabulary) -> str:
    """Versioned text manifest fixing quality order and templates."""
    lines = [f"chordkit-vocab v{MANIFEST_VERSION}", f"reduce_to_majmin {int(vocab.reduce_to_majmin)}"]
    for name, template in zip(vocab.qualities, vocab.templates):
        lines.append(f"{name} {','.join(str(p) for p in sorted(template))}")
    return "\n".join(lines) + "\n"


def manifest_hash(vocab: Vocabulary) -> str:
    return hashlib.sha256(manifest_text(vocab).encode()).hexdigest()


def save_manifest(vocab: Vocabulary, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(manifest_text(vocab))


def load_manifest(path) -> Vocabulary:
    """Read a manifest written by :func:`save_manifest`.

    Raises BadManifest for an empty file, a wrong header, a missing or bad
    ``reduce_to_majmin`` line, a quality line that is not a name plus
    comma-separated pitch classes in 0-11, a quality listed twice, two
    qualities with the same pitch classes (the second would never be
    mapped to), no quality at all, or bytes that are not UTF-8.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise BadManifest(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    if not lines or lines[0].split() != ["chordkit-vocab", f"v{MANIFEST_VERSION}"]:
        raise BadManifest(f"{path}: unrecognized vocabulary manifest header")
    reduce_line = lines[1].split() if len(lines) > 1 else []
    if reduce_line not in (["reduce_to_majmin", "0"], ["reduce_to_majmin", "1"]):
        raise BadManifest(f"{path}: line 2 must be 'reduce_to_majmin 0' or '... 1'")
    names, templates = [], []
    for line_no, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        try:
            name, pcs = line.split()
            template = frozenset(int(p) for p in pcs.split(","))
        except ValueError:
            raise BadManifest(f"{path}: line {line_no}: expected 'name p,p,...'") from None
        if not template <= set(range(12)):
            raise BadManifest(f"{path}: line {line_no}: pitch classes outside 0-11")
        if name in names:
            raise BadManifest(f"{path}: line {line_no}: quality {name!r} listed twice")
        if template in templates:
            earlier = names[templates.index(template)]
            raise BadManifest(f"{path}: line {line_no}: quality {name!r} has the pitch classes "
                              f"of quality {earlier!r}")
        names.append(name)
        templates.append(template)
    if not names:
        raise BadManifest(f"{path}: no qualities")
    return Vocabulary(tuple(names), tuple(templates), reduce_to_majmin=reduce_line[1] == "1")


VOCABULARIES = {170: vocabulary_170, 26: vocabulary_26}  # size -> constructor


def get_vocabulary(size: int) -> Vocabulary:
    if size not in VOCABULARIES:
        raise ValueError(f"unsupported vocabulary size {size}; "
                         f"expected {' or '.join(map(str, VOCABULARIES))}")
    return VOCABULARIES[size]()
