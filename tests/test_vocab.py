import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chordkit.errors import BadManifest, ChordkitError, IdOutOfRange
from chordkit.harte import QUALITY_TEMPLATES, format_chord, parse_chord, transpose_label
from chordkit.vocab import (Vocabulary, check_ids, get_vocabulary, id_info, id_label,
                            load_manifest, manifest_hash, map_label, save_manifest,
                            transpose_id, vocabulary_170, vocabulary_26)

V170 = vocabulary_170()
V26 = vocabulary_26()


class TestStructure:
    def test_sizes(self):
        assert V170.size == 170
        assert V26.size == 26
        assert V170.n_id == 168 and V170.x_id == 169

    def test_templates_distinct(self):
        assert len(set(V170.templates)) == len(V170.templates)

    def test_templates_contain_root(self):
        assert all(0 in t for t in V170.templates)

    def test_get_vocabulary(self):
        assert get_vocabulary(170).size == 170
        assert get_vocabulary(26).size == 26
        with pytest.raises(ValueError):
            get_vocabulary(50)


class TestMapLabel:
    def test_maj7_reduces_to_maj_small(self):
        assert map_label(parse_chord("C:maj7"), V26) == V26.chord_id(0, "maj")

    def test_hdim_maps_to_x_small(self):
        assert map_label(parse_chord("A:hdim7/5"), V26) == V26.x_id

    def test_triad_fallback_large(self):
        assert map_label(parse_chord("C:maj6(9)"), V170) == V170.chord_id(0, "maj")

    def test_bass_is_dropped(self):
        assert map_label(parse_chord("A:hdim7/5"), V170) == V170.chord_id(9, "hdim7")

    def test_sentinels(self):
        assert map_label(parse_chord("N"), V170) == V170.n_id
        assert map_label(parse_chord("X"), V170) == V170.x_id

    def test_unmatched_goes_to_x(self):
        # stripped of its third and fifth, nothing matches
        assert map_label(parse_chord("C:maj(*3,*5)"), V170) == V170.x_id

    def test_every_class_maps_to_itself(self):
        for chord_id in range(V170.size):
            label = id_label(chord_id, V170)
            assert map_label(label, V170) == chord_id

    @staticmethod
    def _majmin(*qualities):
        return Vocabulary(qualities, tuple(QUALITY_TEMPLATES[q] for q in qualities),
                          reduce_to_majmin=True)

    def test_reduced_vocabulary_in_its_own_order(self):
        vocab = self._majmin("min", "maj")
        assert map_label(parse_chord("C:maj"), vocab) == vocab.chord_id(0, "maj")
        assert map_label(parse_chord("A:min7"), vocab) == vocab.chord_id(9, "min")

    def test_reduced_vocabulary_with_more_qualities(self):
        vocab = self._majmin("maj", "min", "dim")
        assert map_label(parse_chord("C:dim"), vocab) == vocab.chord_id(0, "dim")
        assert map_label(parse_chord("B:hdim7"), vocab) == vocab.chord_id(11, "dim")

    # one degree name per root-relative semitone
    _DEGREES = ("1", "b2", "2", "b3", "3", "4", "b5", "5", "#5", "6", "b7", "7")

    @pytest.mark.parametrize("root", ["C", "F"])
    def test_small_vocabulary_is_the_reduction_of_the_large(self, root):
        """Every root-relative pitch-class set, written as maj plus additions
        and omissions, maps into V26 as the maj/min reduction of its V170 class."""
        maj = QUALITY_TEMPLATES["maj"]
        for bits in range(4096):
            chord = {p for p in range(12) if bits >> p & 1}
            degrees = ([self._DEGREES[p] for p in sorted(chord - maj)]
                       + ["*" + self._DEGREES[p] for p in sorted(maj - chord)])
            text = f"{root}:maj" + (f"({','.join(degrees)})" if degrees else "")
            label = parse_chord(text)
            assert map_label(label, V26) == V170.tables.majmin[map_label(label, V170)], text


class TestIdScheme:
    def test_id_zero(self):
        assert id_info(0, V170) == (0, "maj")

    def test_sentinel_info(self):
        assert id_info(V170.n_id, V170) == "N"
        assert id_info(V170.x_id, V170) == "X"

    def test_scheme_arithmetic(self):
        hdim = V170.quality_index("hdim7")
        assert id_info(hdim * 12 + 9, V170) == (9, "hdim7")

    def test_out_of_range(self):
        with pytest.raises(IdOutOfRange):
            id_info(170, V170)
        with pytest.raises(IdOutOfRange):
            id_info(-1, V170)

    def test_out_of_range_message_names_the_first_bad_id(self):
        with pytest.raises(IdOutOfRange, match=r"^id -2 outside \[0, 170\)$"):
            check_ids([3, -2, 200], V170)
        with pytest.raises(IdOutOfRange, match=r"^id 170 outside \[0, 170\)$"):
            id_info(170, V170)
        with pytest.raises(IdOutOfRange, match=r"^id 26 outside \[0, 26\)$"):
            transpose_id(26, 3, V26)


class TestTransposeId:
    def test_identity(self):
        assert transpose_id(0, 0, V170) == 0

    def test_sentinels_fixed(self):
        assert transpose_id(V170.n_id, 5, V170) == V170.n_id
        assert transpose_id(V170.x_id, 5, V170) == V170.x_id

    def test_min_shift(self):
        a_min = V170.chord_id(9, "min")
        c_min = V170.chord_id(0, "min")
        assert transpose_id(a_min, 3, V170) == c_min

    @given(st.integers(0, 169), st.integers(0, 11))
    def test_root_equivariance(self, chord_id, k):
        label = id_label(chord_id, V170)
        assert map_label(transpose_label(label, k), V170) == transpose_id(chord_id, k, V170)


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        for vocab in (V170, V26):
            save_manifest(vocab, path)
            assert load_manifest(path) == vocab

    @pytest.mark.parametrize("text", [
        "",
        "chordkit-vocab v1\n",
        "chordkit-vocabulary v1\nreduce_to_majmin 0\nmaj 0,4,7\n",
        "chordkit-vocab v2\nreduce_to_majmin 0\nmaj 0,4,7\n",
        "chordkit-vocab v1\nreduce_to_majmin yes\nmaj 0,4,7\n",
        "chordkit-vocab v1\nmaj 0,4,7\n",
        "chordkit-vocab v1\nreduce_to_majmin 0\nmaj\n",
        "chordkit-vocab v1\nreduce_to_majmin 0\nmaj 0,4,7 extra\n",
        "chordkit-vocab v1\nreduce_to_majmin 0\nmaj 0,four,7\n",
        "chordkit-vocab v1\nreduce_to_majmin 0\nmaj 0,4,12\n",
        "chordkit-vocab v1\nreduce_to_majmin 0\n\n",
        "chordkit-vocab v1\nreduce_to_majmin 0\nmaj 0,4,7\nmaj 0,3,7\n",
        "chordkit-vocab v1\nreduce_to_majmin 0\nmaj 0,4,7\nmajor 0,4,7\n",
    ], ids=["empty", "header-only", "bad-header", "bad-version", "bad-reduce-value",
            "no-reduce-line", "quality-without-classes", "quality-extra-field",
            "quality-non-integer", "quality-out-of-range", "no-quality", "quality-twice",
            "pitch-classes-twice"])
    def test_malformed_manifest_rejected(self, tmp_path, text):
        path = tmp_path / "vocab.txt"
        path.write_text(text)
        with pytest.raises(BadManifest):
            load_manifest(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.one_of(st.none(), st.integers(0, 400)), flip=st.integers(0, 3_200))
    def test_truncated_or_flipped_file(self, tmp_path, cut, flip):
        """Any damage ends in a vocabulary or a ChordkitError."""
        path = tmp_path / "vocab.txt"
        save_manifest(V26, path)
        raw = bytearray(path.read_bytes())
        if cut is None:
            raw[flip // 8 % len(raw)] ^= 1 << (flip % 8)
        else:
            del raw[cut % len(raw):]
        path.write_bytes(bytes(raw))
        try:
            load_manifest(path)
        except ChordkitError:
            pass

    def test_pitch_classes_twice_names_the_line_and_the_earlier_quality(self, tmp_path):
        """map_label would never return the second quality's ids, in any order of listing."""
        path = tmp_path / "vocab.txt"
        path.write_text("chordkit-vocab v1\nreduce_to_majmin 0\nmaj 0,4,7\nmin 0,3,7\nmajor 7,0,4\n")
        with pytest.raises(BadManifest, match="line 5: quality 'major' has the pitch classes "
                                              "of quality 'maj'"):
            load_manifest(path)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"chordkit-vocab v1\nreduce_to_majmin 0\nmaj\xff 0,4,7\n")
        with pytest.raises(BadManifest, match="UTF-8"):
            load_manifest(path)

    def test_hash_stable(self):
        assert manifest_hash(V170) == manifest_hash(vocabulary_170())
        assert manifest_hash(V170) != manifest_hash(V26)

    def test_hash_of_the_built_in_manifests(self):
        """Saved checkpoints and posteriorgrams record these hashes."""
        assert manifest_hash(V170) == (
            "c4c4626825a7ad7592fa0b7f901ebec75eb560720835ae2415871afd736115ed")
        assert manifest_hash(V26) == (
            "9d966857461a45820b41b5cdbb47bd54eea19ad00eb2975a9b5d80a84b63c072")

    def test_format_of_every_class_parses(self):
        for chord_id in range(168):
            text = format_chord(id_label(chord_id, V170))
            assert map_label(parse_chord(text), V170) == chord_id
