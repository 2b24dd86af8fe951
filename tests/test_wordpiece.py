import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from biaslattice.errors import InputFormatError
from biaslattice.wordpiece import (
    SegmentationError,
    detokenize,
    load_vocab,
    make_vocab,
    read_vocab,
    save_vocab,
    segment,
    word_end,
)


class TestSegment:
    def test_longest_match(self, toy_vocab):
        assert segment(toy_vocab, "play") == ("pl", "ay", "_")

    def test_single_char_word(self):
        vocab = make_vocab({"a"})
        assert segment(vocab, "a") == ("a", "_")

    def test_fused_form(self, toy_vocab):
        assert segment(toy_vocab, "player", fused=True) == ("pl", "ay", "er_")

    def test_unsegmentable_character(self, toy_vocab):
        with pytest.raises(SegmentationError, match="position"):
            segment(toy_vocab, "play9")

    def test_empty_word(self, toy_vocab):
        with pytest.raises(SegmentationError):
            segment(toy_vocab, "")

    def test_word_with_delimiter(self, toy_vocab):
        with pytest.raises(SegmentationError):
            segment(toy_vocab, "pl_ay")

    @given(st.text(alphabet="abcd", min_size=1, max_size=12),
           st.sets(st.text(alphabet="abcd", min_size=2, max_size=3), max_size=10))
    @settings(max_examples=120, deadline=None)
    def test_concatenation_identity(self, word, extra):
        vocab = make_vocab(set("abcd") | extra)
        for fused in (False, True):
            pieces = segment(vocab, word, fused=fused)
            joined = "".join(p.rstrip(vocab.delimiter) for p in pieces)
            assert joined == word
            assert [word_end(vocab, p) for p in pieces[:-1]] == [None] * (len(pieces) - 1)
            assert word_end(vocab, pieces[-1]) is not None

    def test_deterministic(self, toy_vocab):
        assert segment(toy_vocab, "playground") == segment(toy_vocab, "playground")


class TestDelimiter:
    """``word_end`` splits a token: the content a word end closes its word
    with, or None for a token that extends the word."""

    def test_standalone(self, toy_vocab):
        assert word_end(toy_vocab, "_") == ""

    def test_content_piece(self, toy_vocab):
        assert word_end(toy_vocab, "pl") is None

    def test_fused(self, toy_vocab):
        assert word_end(toy_vocab, "er_") == "er"

    def test_empty(self, toy_vocab):
        with pytest.raises(ValueError, match="empty token"):
            word_end(toy_vocab, "")

    @pytest.mark.parametrize("token", ["a__", "__", "a_b_"])
    def test_content_holding_the_delimiter(self, toy_vocab, token):
        with pytest.raises(ValueError, match="in its content"):
            word_end(toy_vocab, token)

    def test_other_delimiter(self):
        vocab = make_vocab({"a", "b", "ab"}, "||")
        assert [word_end(vocab, t) for t in ("ab||", "||", "a", "a|")] == ["ab", "", None, None]
        with pytest.raises(ValueError):
            word_end(vocab, "a||||")


class TestDetokenize:
    def test_round_trip_text(self, toy_vocab):
        text = "play call player"
        tokens = [piece for word in text.split() for piece in segment(toy_vocab, word)]
        assert detokenize(toy_vocab, tokens) == text

    def test_fused_tokens(self, toy_vocab):
        assert detokenize(toy_vocab, ["pl", "ay", "er_", "ca", "ll_"]) == "player call"

    def test_unterminated_tail_becomes_word(self, toy_vocab):
        assert detokenize(toy_vocab, ["pl", "ay"]) == "play"


class TestVocabValidation:
    def test_uncovered_character_rejected(self):
        with pytest.raises(ValueError, match="single-character"):
            make_vocab({"ab", "a"})

    def test_delimiter_inside_piece_rejected(self):
        with pytest.raises(ValueError, match="delimiter"):
            make_vocab({"a", "a_b"})

    def test_empty_piece_rejected(self):
        with pytest.raises(ValueError):
            make_vocab({"a", ""})

    def test_delimiter_as_piece_allowed(self):
        vocab = make_vocab({"a", "_"})
        assert segment(vocab, "a") == ("a", "_")


@st.composite
def _vocabularies(draw):
    """Vocabularies over letters, ``#``, delimiters and whitespace, line ends
    included: up to 6 single-character pieces, up to 4 longer pieces over
    them, maybe the delimiter (one or two characters) as a piece."""
    delimiter = draw(st.text("_|#", min_size=1, max_size=2) | st.sampled_from((" ", "\t|")))
    chars = draw(st.sets(st.sampled_from("ab#_|"), max_size=5)
                 | st.sets(st.sampled_from("ab \t\n\r\x85"), max_size=6)) - {delimiter}
    longer = draw(st.sets(st.text(sorted(chars), min_size=2, max_size=3), max_size=4)
                  if chars else st.just(set()))
    pieces = chars | {p for p in longer if delimiter not in p}
    return make_vocab(pieces | ({delimiter} if draw(st.booleans()) else set()), delimiter)


class TestVocabFiles:
    def test_basic_and_delimiter_directive(self):
        vocab = read_vocab(["#delimiter |", "# comment", "a", "b", "ab"])
        assert vocab.delimiter == "|"
        assert segment(vocab, "ab") == ("ab", "|")

    def test_empty_file(self):
        with pytest.raises(InputFormatError):
            read_vocab(["# nothing"])

    def test_bad_directive(self):
        with pytest.raises(InputFormatError):
            read_vocab(["#delimiter", "a"])

    @pytest.mark.parametrize("lines, lineno, message", [
        (["a", "b", "_", "a_b", "zz"], 4, "piece 'a_b' holds the delimiter '_'"),
        (["#delimiter |", "a", "", "a|b", "b"], 4, "piece 'a|b' holds the delimiter '|'"),
        (["a", "# b", "ab", "_"], 3, "piece 'ab' uses characters ['b']"),
        (["a", "cb", "a_b", "b"], 2, "piece 'cb' uses characters ['c']"),
        (["#delimiter |", "a", "#delimiter _", "b"], 3,
         "a second #delimiter directive (the first is on line 1)"),
    ])
    def test_error_names_its_line(self, tmp_path, lines, lineno, message):
        p = tmp_path / "vocab.txt"
        p.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(InputFormatError, match=f"^{re.escape(f'{p}:{lineno}: {message}')}"):
            load_vocab(p)

    @pytest.mark.parametrize("pieces, delimiter, named", [
        ({"a", "b", "c", "#", "c#"}, "_", "piece '#'"),
        ({"a", "#"}, "#", "piece '#'"),
        ({"a", " "}, "_", "piece ' '"),
        ({"a", "\u2028"}, "_", "piece '\\u2028'"),
        ({"a"}, "| |", "delimiter '| |'"),
        ({"a"}, "\t", "delimiter '\\t'"),
        (set(), "_", "at least one piece"),
    ])
    def test_save_refuses_what_cannot_read_back(self, tmp_path, pieces, delimiter, named):
        vocab = make_vocab(pieces, delimiter)
        with pytest.raises(ValueError, match=re.escape(named)):
            save_vocab(vocab, tmp_path / "vocab.txt")
        assert not (tmp_path / "vocab.txt").exists()

    @given(_vocabularies())
    @example(make_vocab({"a", "b", "c", "#", "c#"}))
    @settings(max_examples=300, deadline=None)
    def test_saved_vocab_reads_back_equal(self, vocab):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vocab.txt"
            try:
                save_vocab(vocab, path)
            except ValueError:
                assert not path.exists()
                return
            assert load_vocab(path) == vocab
