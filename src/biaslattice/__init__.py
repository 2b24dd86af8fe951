"""Personalized-phrase biasing for subword beam decoding.

Word-level biasing automata applied on the fly at the subword level, class
templates for contextual injection, a pluggable-oracle decode harness with
shallow fusion, and Kneser-Ney second-pass rescoring with (alpha, beta)
tuning.
"""

from .fst import CatalogEntry, WordFst, build_catalog_fst
from .lookahead import PhraseWalk
from .wordpiece import WordpieceVocab, make_vocab, segment

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "WordFst",
    "build_catalog_fst",
    "PhraseWalk",
    "WordpieceVocab",
    "make_vocab",
    "segment",
    "__version__",
]
