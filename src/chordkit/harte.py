"""Parsing and manipulation of chord labels in Harte notation.

Supported grammar::

    chord   := "N" | "X" | note ":" quality [ "(" degrees ")" ] [ "/" bass ]
    note    := [A-G] ("#" | "b")*
    degrees := degree ("," degree)*
    degree  := "*"? ("#" | "b")* (1-7 | 9 | 11 | 13)
    bass    := ("#" | "b")* integer(1-13)

A list degree, which may be padded with whitespace, must be a key of
:data:`DEGREE_SEMITONES`, so every parsed label has a pitch-class set.
Interval-list-only chords such as ``C:(1,3,5)`` raise
:class:`MalformedChord`, which ``annotate.load_annotation`` reports as
``MalformedLine``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace

from .errors import MalformedChord, UnknownDegree

# Natural note names to pitch classes (0 = C).
NOTE_PITCH = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

# Canonical (sharp-based) pitch class names used when printing labels.
PITCH_NAMES = ["C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"]

# Root-relative pitch class templates of the 14 supported qualities, in
# vocabulary order.
QUALITY_TEMPLATES = {
    "maj": frozenset({0, 4, 7}),
    "min": frozenset({0, 3, 7}),
    "dim": frozenset({0, 3, 6}),
    "aug": frozenset({0, 4, 8}),
    "min6": frozenset({0, 3, 7, 9}),
    "maj6": frozenset({0, 4, 7, 9}),
    "min7": frozenset({0, 3, 7, 10}),
    "minmaj7": frozenset({0, 3, 7, 11}),
    "maj7": frozenset({0, 4, 7, 11}),
    "7": frozenset({0, 4, 7, 10}),
    "dim7": frozenset({0, 3, 6, 9}),
    "hdim7": frozenset({0, 3, 6, 10}),
    "sus2": frozenset({0, 2, 7}),
    "sus4": frozenset({0, 5, 7}),
}

QUALITY_ORDER = list(QUALITY_TEMPLATES)

# Scale degree to semitone offset, and the degrees a parenthesised list may
# hold. degree_to_semitone raises UnknownDegree outside this table.
DEGREE_SEMITONES = {1: 0, 2: 2, 3: 4, 4: 5, 5: 7, 6: 9, 7: 11, 9: 2, 11: 5, 13: 9}

_DEGREE_RE = re.compile(r"(\*?)([#b]*)([0-9]{1,2})")

# The module grammar as one pattern; degree numbers are checked after the match.
# Digits are ASCII: ``\d`` would also match other scripts' decimal digits.
# List degrees may be padded with spaces or tabs; ``\s`` would also take
# newlines, Unicode spaces and the ASCII separators \x1c-\x1f.
_LIST_DEGREE = r"[ \t]*\*?[#b]*[0-9]{1,2}[ \t]*"
_CHORD_RE = re.compile(
    r"(?P<note>[A-G])(?P<accidentals>[#b]*)"
    r":(?P<quality>" + "|".join(map(re.escape, QUALITY_TEMPLATES)) + ")"
    rf"(?:\((?P<degrees>{_LIST_DEGREE}(?:,{_LIST_DEGREE})*)\))?"
    r"(?:/(?P<bass>[#b]*(?P<bass_number>[0-9]{1,2})))?")


class ChordKind(enum.Enum):
    CHORD = "chord"
    NO_CHORD = "no_chord"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ChordLabel:
    """A parsed Harte chord label.

    For NO_CHORD / UNKNOWN kinds, all other fields are empty.
    """

    kind: ChordKind = ChordKind.CHORD
    root: int | None = None
    quality: str | None = None
    additions: tuple[str, ...] = field(default_factory=tuple)
    omissions: tuple[str, ...] = field(default_factory=tuple)
    bass: str | None = None

    def is_chord(self) -> bool:
        return self.kind is ChordKind.CHORD

    def __str__(self) -> str:
        return format_chord(self)


NO_CHORD = ChordLabel(kind=ChordKind.NO_CHORD)
UNKNOWN_CHORD = ChordLabel(kind=ChordKind.UNKNOWN)


def degree_to_semitone(degree: str) -> int:
    """Map a degree token like ``b7`` to its semitone offset (mod 12)."""
    m = _DEGREE_RE.fullmatch(degree)
    if not m:
        raise UnknownDegree(f"bad degree token: {degree!r}")
    _, accidentals, number = m.groups()
    number = int(number)
    if number not in DEGREE_SEMITONES:
        raise UnknownDegree(f"degree {number} has no semitone mapping")
    offset = DEGREE_SEMITONES[number]
    offset += accidentals.count("#") - accidentals.count("b")
    return offset % 12


def parse_chord(text: str) -> ChordLabel:
    """Parse a Harte chord string into a :class:`ChordLabel`.

    Raises MalformedChord for anything outside the supported grammar.
    """
    if text == "N":
        return NO_CHORD
    if text == "X":
        return UNKNOWN_CHORD
    m = _CHORD_RE.fullmatch(text)
    if m is None:
        raise MalformedChord(f"not a chord label of the supported grammar: {text!r}")
    note, accidentals, quality, degree_list, bass, bass_number = m.groups()
    if bass is not None and not 1 <= int(bass_number) <= 13:
        raise MalformedChord(f"bass degree out of range 1-13: {text!r}")
    additions, omissions = [], []
    for token in degree_list.split(",") if degree_list else ():
        token = token.strip()
        if int(token.lstrip("*#b")) not in DEGREE_SEMITONES:
            raise MalformedChord(f"degree {token!r} has no pitch class in {text!r}")
        if token.startswith("*"):
            omissions.append(token[1:])
        else:
            additions.append(token)
    root = (NOTE_PITCH[note] + accidentals.count("#") - accidentals.count("b")) % 12
    return ChordLabel(ChordKind.CHORD, root, quality, tuple(additions), tuple(omissions), bass)


def format_chord(label: ChordLabel) -> str:
    """Canonical Harte string such that parse_chord(format_chord(x)) == x."""
    if label.kind is ChordKind.NO_CHORD:
        return "N"
    if label.kind is ChordKind.UNKNOWN:
        return "X"
    parts = [PITCH_NAMES[label.root], ":", label.quality]
    degrees = list(label.additions) + ["*" + d for d in label.omissions]
    if degrees:
        parts.append("(" + ",".join(degrees) + ")")
    if label.bass is not None:
        parts.append("/" + label.bass)
    return "".join(parts)


def relative_pitch_classes(label: ChordLabel) -> set[int]:
    """Pitch classes of a chord label relative to its root: the quality
    template plus additions minus omissions."""
    if not label.is_chord():
        raise MalformedChord("pitch classes require a sounding chord")
    relative = set(QUALITY_TEMPLATES[label.quality])
    for token in label.additions:
        relative.add(degree_to_semitone(token))
    for token in label.omissions:
        relative.discard(degree_to_semitone(token))
    return relative


def pitch_class_set(label: ChordLabel) -> frozenset[int]:
    """Absolute pitch classes sounded by a chord label: its relative pitch
    classes transposed by the root."""
    return frozenset((p + label.root) % 12 for p in relative_pitch_classes(label))


def transpose_label(label: ChordLabel, k: int) -> ChordLabel:
    """Shift the root by k semitones (mod 12); N/X are returned unchanged."""
    if not label.is_chord():
        return label
    return replace(label, root=(label.root + k) % 12)
