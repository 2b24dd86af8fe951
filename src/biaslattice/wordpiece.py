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
        content = {p for p in self.pieces if p != self.delimiter}
        if any(not p for p in content):
            raise ValueError("empty piece in vocabulary")
        if any(self.delimiter in p for p in content):
            raise ValueError("content pieces must not contain the delimiter")
        alphabet = {p for p in content if len(p) == 1}
        for p in content:
            missing = set(p) - alphabet
            if missing:
                raise ValueError(
                    f"piece {p!r} uses characters {sorted(missing)} that are not "
                    "single-character pieces themselves"
                )

    @cached_property
    def _max_piece_len(self) -> int:
        return max((len(p) for p in self.pieces if p != self.delimiter), default=0)


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
# UTF-8 text, one piece per line.  A directive line ``#delimiter <str>``
# overrides the default delimiter; other ``#``-prefixed lines are comments.


def read_vocab(lines: Iterable[str], *, source: str = "<vocab>") -> WordpieceVocab:
    pieces = []
    delimiter = DEFAULT_DELIMITER
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if parts[0] == "#delimiter":
                if len(parts) != 2:
                    raise InputFormatError(f"{source}:{lineno}: bad #delimiter directive")
                delimiter = parts[1]
            continue
        pieces.append(line)
    if not pieces:
        raise InputFormatError(f"{source}: no pieces found")
    try:
        return make_vocab(pieces, delimiter)
    except ValueError as exc:
        raise InputFormatError(f"{source}: {exc}") from None


def load_vocab(path) -> WordpieceVocab:
    with open_text(path) as f:
        return read_vocab(f, source=str(path))


def save_vocab(vocab: WordpieceVocab, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        if vocab.delimiter != DEFAULT_DELIMITER:
            f.write(f"#delimiter {vocab.delimiter}\n")
        for piece in sorted(vocab.pieces):
            f.write(piece + "\n")
