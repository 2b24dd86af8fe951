"""Subword vocabularies and greedy longest-match segmentation.

The toolkit stays word-level everywhere else; this module is the only place
that knows how words break into subword pieces.  Two delimiter conventions
are understood: a standalone word-boundary token (``pl ay _``) and a fused
marker on the final piece (``pl ay er_``).  :func:`word_end` splits a token,
so the biasers read only word content.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InputFormatError, open_text

DEFAULT_DELIMITER = "_"


class SegmentationError(InputFormatError, ValueError):
    """A word cannot be segmented with the given vocabulary."""


@dataclass(frozen=True)
class WordpieceVocab:
    """An inventory of subword pieces plus the word-boundary delimiter.

    Every character appearing in any piece must itself be a piece, which
    guarantees that any word over the covered alphabet is segmentable.
    Instances are immutable and safe to share across threads.
    """

    pieces: frozenset[str]
    delimiter: str = DEFAULT_DELIMITER

    def __post_init__(self):
        if not self.delimiter:
            raise ValueError("delimiter must be non-empty")
        fault = _first_fault(sorted(self.pieces), self.delimiter)
        if fault:
            raise ValueError(fault[1])

    @cached_property
    def _max_piece_len(self) -> int:
        return max((len(p) for p in self.pieces if p != self.delimiter), default=0)


def _first_fault(pieces: list[str], delimiter: str) -> tuple[str, str] | None:
    """``(piece, what is wrong)`` for the first of ``pieces`` that a vocabulary
    with this delimiter cannot hold, or None."""
    content = [p for p in pieces if p != delimiter]
    alphabet = {p for p in content if len(p) == 1}
    for p in content:
        if not p:
            return p, "empty piece in vocabulary"
        if delimiter in p:
            return p, f"piece {p!r} holds the delimiter {delimiter!r}"
        missing = set(p) - alphabet
        if missing:
            return p, (f"piece {p!r} uses characters {sorted(missing)} that are not "
                       "single-character pieces themselves")
    return None


def make_vocab(pieces: Iterable[str], delimiter: str = DEFAULT_DELIMITER) -> WordpieceVocab:
    return WordpieceVocab(frozenset(pieces), delimiter)


def segment(vocab: WordpieceVocab, word: str, *, fused: bool = False) -> tuple[str, ...]:
    """Split ``word`` greedily into vocabulary pieces, longest match first.

    The result ends with the delimiter: standalone (``(pl, ay, _)``) by
    default, or fused onto the last piece (``(pl, ay, er_)``) with
    ``fused=True``.  Joining the pieces (delimiter stripped) restores the
    input exactly.
    """
    if not word:
        raise SegmentationError("cannot segment an empty word")
    if vocab.delimiter in word:
        raise SegmentationError(f"word {word!r} contains the delimiter")
    pieces = []
    start = 0
    n = len(word)
    while start < n:
        end = min(n, start + vocab._max_piece_len)
        while end > start and word[start:end] not in vocab.pieces:
            end -= 1
        if end == start:
            raise SegmentationError(
                f"unsegmentable character {word[start]!r} in {word!r} at position {start}"
            )
        pieces.append(word[start:end])
        start = end
    if fused:
        pieces[-1] += vocab.delimiter
        return tuple(pieces)
    return tuple(pieces) + (vocab.delimiter,)


def word_end(vocab: WordpieceVocab, token: str) -> str | None:
    """The content a word-ending token closes its word with, or None for a
    token that extends the word: ``er_`` -> ``er``, ``_`` -> "", ``pl`` -> None.
    An empty token, and a word end such as ``a__``, raise ValueError.
    """
    d = vocab.delimiter
    if not token.endswith(d):
        if not token:
            raise ValueError("empty token")
        return None
    content = token[: -len(d)]
    if d in content:
        raise ValueError(f"word end {token!r} has the delimiter {d!r} in its content")
    return content


def detokenize(vocab: WordpieceVocab, tokens: Iterable[str]) -> str:
    """Rebuild the word sequence from subword tokens (inverse of segment)."""
    words: list[str] = []
    current: list[str] = []
    for tok in tokens:
        content = word_end(vocab, tok)
        if content is None:
            current.append(tok)
        else:
            current.append(content)
            word = "".join(current)
            if word:
                words.append(word)
            current = []
    tail = "".join(current)
    if tail:
        words.append(tail)
    return " ".join(words)


# -- vocabulary files --------------------------------------------------------
#
# UTF-8 text, one piece per line.  One directive line ``#delimiter <str>``
# may override the default delimiter; other ``#``-prefixed lines are comments.


def read_vocab(lines: Iterable[str], *, source: str = "<vocab>") -> WordpieceVocab:
    """A vocabulary from its file's lines; an error names ``source:line``."""
    lineno_of: dict[str, int] = {}  # piece -> the line it first appears on
    delimiter, directive = DEFAULT_DELIMITER, 0  # directive: its line, once read
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if parts[0] == "#delimiter":
                if len(parts) != 2:
                    raise InputFormatError(f"{source}:{lineno}: bad #delimiter directive")
                if directive:
                    raise InputFormatError(f"{source}:{lineno}: a second #delimiter directive "
                                           f"(the first is on line {directive})")
                delimiter, directive = parts[1], lineno
            continue
        lineno_of.setdefault(line, lineno)
    if not lineno_of:
        raise InputFormatError(f"{source}: no pieces found")
    fault = _first_fault(list(lineno_of), delimiter)
    if fault:
        raise InputFormatError(f"{source}:{lineno_of[fault[0]]}: {fault[1]}")
    return make_vocab(lineno_of, delimiter)


def load_vocab(path) -> WordpieceVocab:
    with open_text(path) as f:
        return read_vocab(f, source=str(path))


def save_vocab(vocab: WordpieceVocab, path) -> None:
    """Write ``vocab`` as :func:`load_vocab` reads it back equal, or raise
    ValueError, writing nothing, for a vocabulary no file can hold."""
    pieces = sorted(vocab.pieces)
    if not pieces:
        raise ValueError("a vocabulary file holds at least one piece")
    if vocab.delimiter.split() != [vocab.delimiter]:
        raise ValueError(f"delimiter {vocab.delimiter!r} holds whitespace")
    for piece in pieces:
        if piece.startswith("#") or piece != piece.strip():
            raise ValueError(f"piece {piece!r} starts with '#' or has surrounding whitespace")
    with open(path, "w", encoding="utf-8") as f:
        if vocab.delimiter != DEFAULT_DELIMITER:
            f.write(f"#delimiter {vocab.delimiter}\n")
        f.writelines(piece + "\n" for piece in pieces)
