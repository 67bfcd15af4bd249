import re

import pytest
from hypothesis import given, settings, strategies as st

from chordkit import harte
from chordkit.errors import MalformedChord, UnknownDegree
from chordkit.harte import (ChordKind, ChordLabel, format_chord, parse_chord,
                            pitch_class_set, transpose_label)
from chordkit.vocab import get_vocabulary, map_label


class TestParse:
    def test_major_seventh(self):
        label = parse_chord("C:maj7")
        assert label.root == 0
        assert label.quality == "maj7"
        assert label.additions == ()
        assert label.bass is None

    def test_half_diminished_with_bass(self):
        label = parse_chord("A:hdim7/5")
        assert label.root == 9
        assert label.quality == "hdim7"
        assert label.bass == "5"

    def test_no_chord(self):
        assert parse_chord("N").kind is ChordKind.NO_CHORD

    def test_unknown_chord(self):
        assert parse_chord("X").kind is ChordKind.UNKNOWN

    def test_additions(self):
        label = parse_chord("C:maj6(9)")
        assert label.quality == "maj6"
        assert label.additions == ("9",)

    def test_omission(self):
        label = parse_chord("C:maj7(*5)")
        assert label.omissions == ("5",)

    @pytest.mark.parametrize("padded, text", [
        ("C:maj( 3)", "C:maj(3)"), ("C:maj(\t3)", "C:maj(3)"), ("C:maj(3 ,\t5 )", "C:maj(3,5)"),
    ])
    def test_list_degrees_padded_with_spaces_or_tabs(self, padded, text):
        assert format_chord(parse_chord(padded)) == text

    def test_accidentals(self):
        assert parse_chord("Db:maj").root == 1
        assert parse_chord("C#:maj").root == 1
        assert parse_chord("Cb:maj").root == 11

    @pytest.mark.parametrize("bad", [
        "", " C:maj", "C:maj ", "H:maj", "C", "C:blah", "C:(1,3,5)",
        "C:maj(14)", "C:maj()", "C:maj/*3", "N:maj",
        "C:maj(8)", "C:maj(b10)", "C:min(*12)", "C:7(9, 12)", "C\n:maj", "C:maj(3)\n/5",
        "C:maj(\u0663)", "C:maj/\u0663", "C:maj(1\u0663)",  # Arabic-Indic digit three
        "C:maj(\u20033)", "C:maj(\x1c3)", "C:maj(3\n)",  # em space, separator, newline
    ])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(MalformedChord):
            parse_chord(bad)


class TestFormat:
    def test_simple(self):
        assert format_chord(parse_chord("C:maj7")) == "C:maj7"

    def test_no_chord(self):
        assert format_chord(harte.NO_CHORD) == "N"

    def test_bass_roundtrip(self):
        assert format_chord(parse_chord("A:hdim7/5")) == "A:hdim7/5"

    @pytest.mark.parametrize("text", [
        "C:maj", "F#:min7(9,11)/3", "Bb:dim7", "G:sus4(*5)", "X", "N",
        "E:minmaj7/b3",
    ])
    def test_parse_format_identity(self, text):
        label = parse_chord(text)
        assert parse_chord(format_chord(label)) == label


class TestPitchClassSet:
    def test_major_triad(self):
        assert pitch_class_set(parse_chord("C:maj")) == {0, 4, 7}

    def test_shared_pitch_classes(self):
        # relative chords share identical pitch-class content
        assert pitch_class_set(parse_chord("G:maj6")) == {7, 11, 2, 4}
        assert pitch_class_set(parse_chord("E:min7")) == {4, 7, 11, 2}

    def test_addition(self):
        # {0,4,7,9} plus the ninth (2)
        assert pitch_class_set(parse_chord("C:maj6(9)")) == {0, 2, 4, 7, 9}

    def test_omission(self):
        assert pitch_class_set(parse_chord("C:maj(*5)")) == {0, 4}

    def test_degree_semitones(self):
        assert harte.degree_to_semitone("b7") == 10
        assert harte.degree_to_semitone("#5") == 8
        assert harte.degree_to_semitone("13") == 9
        with pytest.raises(UnknownDegree):
            harte.degree_to_semitone("8")

    @pytest.mark.parametrize("bad", ["3\n", "\n3", "b7 ", "\u0663", ""])
    def test_degree_token_must_be_the_whole_string(self, bad):
        with pytest.raises(UnknownDegree):
            harte.degree_to_semitone(bad)

    @pytest.mark.parametrize("label", ["N", "X"])
    def test_no_sounding_chord_has_no_relative_pitch_classes(self, label):
        with pytest.raises(MalformedChord):
            harte.relative_pitch_classes(parse_chord(label))


class TestTranspose:
    def test_identity(self):
        label = parse_chord("C:maj")
        assert transpose_label(label, 0) == label
        assert transpose_label(label, 12) == label

    def test_shift(self):
        assert transpose_label(parse_chord("A:min7"), 3) == parse_chord("C:min7")

    def test_sentinels_fixed(self):
        assert transpose_label(harte.NO_CHORD, 5) == harte.NO_CHORD
        assert transpose_label(harte.UNKNOWN_CHORD, 5) == harte.UNKNOWN_CHORD

    @given(st.integers(0, 11), st.sampled_from(harte.QUALITY_ORDER), st.integers(-24, 24))
    def test_pitch_set_equivariance(self, root, quality, k):
        label = ChordLabel(kind=ChordKind.CHORD, root=root, quality=quality)
        shifted = pitch_class_set(transpose_label(label, k))
        assert shifted == {(p + k) % 12 for p in pitch_class_set(label)}

    @given(st.integers(0, 11), st.sampled_from(harte.QUALITY_ORDER), st.integers(0, 11))
    def test_transpose_inverse(self, root, quality, k):
        label = ChordLabel(kind=ChordKind.CHORD, root=root, quality=quality)
        assert transpose_label(transpose_label(label, k), -k) == label


_REF_NOTE_RE = re.compile(r"^([A-G])([#b]*)$")
_REF_DEGREE_RE = re.compile(r"^(\*?)([#b]*)(\d{1,2})$")


def _reference_degree(token: str, *, allow_omission: bool) -> str:
    m = _REF_DEGREE_RE.match(token)
    if not m:
        raise MalformedChord(f"bad degree token: {token!r}")
    starred, _, number = m.groups()
    if starred and not allow_omission:
        raise MalformedChord(f"omission not allowed here: {token!r}")
    if not 1 <= int(number) <= 13:
        raise MalformedChord(f"degree out of range 1-13: {token!r}")
    return token


def reference_parse_chord(text: str) -> ChordLabel:
    """The step-by-step parser that ``parse_chord``'s one grammar match
    replaced: it split on ':', '/' and the parentheses and took any list
    degree from 1 to 13, including 8, 10 and 12, which have no pitch class."""
    if not text or text != text.strip():
        raise MalformedChord(f"empty or untrimmed label: {text!r}")
    if text == "N":
        return harte.NO_CHORD
    if text == "X":
        return harte.UNKNOWN_CHORD
    if ":" not in text:
        raise MalformedChord(f"missing ':' in chord label: {text!r}")
    note_part, rest = text.split(":", 1)
    m = _REF_NOTE_RE.match(note_part)
    if not m:
        raise MalformedChord(f"bad note name: {note_part!r}")
    root = (harte.NOTE_PITCH[m[1]] + m[2].count("#") - m[2].count("b")) % 12
    bass = None
    if "/" in rest:
        rest, bass_part = rest.rsplit("/", 1)
        bass = _reference_degree(bass_part, allow_omission=False)
    additions, omissions = [], []
    if "(" in rest:
        m = re.match(r"^([^()]*)\(([^()]*)\)$", rest)
        if not m:
            raise MalformedChord(f"bad parenthesized degree list: {text!r}")
        rest, degree_list = m.groups()
        if not degree_list:
            raise MalformedChord(f"empty degree list: {text!r}")
        for token in degree_list.split(","):
            token = _reference_degree(token.strip(), allow_omission=True)
            if token.startswith("*"):
                omissions.append(token[1:])
            else:
                additions.append(token)
    if rest not in harte.QUALITY_TEMPLATES:
        raise MalformedChord(f"unsupported quality: {rest!r} in {text!r}")
    return ChordLabel(kind=ChordKind.CHORD, root=root, quality=rest,
                      additions=tuple(additions), omissions=tuple(omissions), bass=bass)


def rejected_on_purpose(text: str, reference: ChordLabel) -> bool:
    """Labels the reference accepts and ``parse_chord`` rejects: a list
    degree of 8, 10 or 12, or whitespace other than spaces and tabs. The
    reference's ``strip`` took any whitespace around a list degree, and its
    ``$`` let a newline through right before the ':' or the bass's '/'."""
    numbers = {int(token.lstrip("#b")) for token in reference.additions + reference.omissions}
    return bool(numbers & {8, 10, 12}) or any(c.isspace() and c not in " \t" for c in text)


_FRAGMENTS = (list("ABCDEFGHNX#b*:(),/ \t\n") + [str(n) for n in range(15)]
              + ["00", "07", "99", "1,3"] + harte.QUALITY_ORDER)
fragment_strings = st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join)
_padding = st.sampled_from(["", " ", "\t", "\n", " \n"])
structured_labels = st.builds(
    lambda note, accidentals, quality, degrees, bass: (
        f"{note}{accidentals}:{quality}"
        + (f"({','.join(degrees)})" if degrees is not None else "")
        + (f"/{bass}" if bass is not None else "")),
    st.sampled_from("ABCDEFG"),
    st.text("#b", max_size=3),
    st.sampled_from(harte.QUALITY_ORDER),
    st.none() | st.lists(st.builds("{}{}{}{}{}".format, _padding, st.sampled_from(["", "*"]),
                                   st.text("#b", max_size=2), st.integers(0, 15), _padding),
                         max_size=4),
    st.none() | st.builds("{}{}".format, st.text("#b", max_size=2), st.integers(0, 15)),
)
newline_labels = st.builds(lambda text, i: text[:i] + "\n" + text[i:],
                           structured_labels, st.integers(0, 40))


class TestGrammarMatch:
    @settings(max_examples=2000, deadline=None)
    @given(st.one_of(fragment_strings, structured_labels, newline_labels,
                     st.text("ABCDGNXmajinsud#b*:(),/ 0123789\n", max_size=16)))
    def test_same_as_reference_parser(self, text):
        """The same label or the same exception type as the replaced parser,
        except for the inputs it rejects on purpose."""
        try:
            expected = reference_parse_chord(text)
        except MalformedChord:
            with pytest.raises(MalformedChord):
                parse_chord(text)
            return
        if rejected_on_purpose(text, expected):
            with pytest.raises(MalformedChord):
                parse_chord(text)
        else:
            assert parse_chord(text) == expected

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(structured_labels, fragment_strings))
    def test_every_accepted_label_has_pitch_classes(self, text):
        try:
            label = parse_chord(text)
        except MalformedChord:
            return
        if label.is_chord():
            assert pitch_class_set(label) <= set(range(12))
        for size in (170, 26):
            vocab = get_vocabulary(size)
            assert 0 <= map_label(label, vocab) < vocab.size
