"""Every line-based text format reads its records by one rule,
``errors.records``: blank lines, ``#`` comments (indented or not) and the
whitespace around a record are skipped, and an error names ``file:line``.
A keyed format refuses a key given twice, at the line that repeats it."""

import re

import pytest

from biaslattice import context, fst, lm, metrics
from biaslattice.errors import InputFormatError, open_text


def _lines(reader, **kwargs):
    """``reader`` over a file's lines, its errors naming the file."""

    def read(path):
        with open_text(path) as f:
            return reader(f, source=str(path), **kwargs)

    return read


def _class_fst(path):
    cfst = _lines(context.build_class_fst, min_count=1)(path)
    return fst.serialize(cfst.fst), cfst.tags


def _model(path):
    model = _lines(lm.train_kn_lm, order=2)(path)
    return model.logprobs, model.backoffs, model.classes


# reader -> (read a file, one record, one malformed record)
READERS = {
    "catalog": (fst.load_catalog, "ada lovelace\t-1.5", "ada\theavy"),
    "bindings": (_lines(context.read_bindings, tags=frozenset({"@contactname"})),
                 "@contactname\tcontacts.fst",
                 "contactname\tcontacts.fst"),
    "class-corpus": (_class_fst, "call @contactname(ada lovelace)", "call @contactname(ada"),
    "lm-corpus": (_model, "call @contactname(ada lovelace)", "call ada)"),
    "members": (lm.read_members, "@contactname\tada\t-0.3", "@contactname\tada"),
    "refs": (metrics.read_refs, "contacts-0\tcall ada lovelace", "contacts-0 call ada"),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_one_record_rule(tmp_path, name):
    read, record, bad = READERS[name]
    plain = tmp_path / "plain.txt"
    plain.write_text(f"{record}\n", encoding="utf-8")
    padded = tmp_path / "padded.txt"
    skipped = "\n# a comment\n  \t# an indented comment\n\t\n"
    padded.write_text(f"{skipped}  {record} \t\n", encoding="utf-8")
    assert read(padded) == read(plain)

    # The malformed record is on line 6, after the skipped lines and a record.
    padded.write_text(f"{skipped}{record}\n{bad}\n{record}\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match=f"^{re.escape(str(padded))}:6: "):
        read(padded)


# keyed reader -> a record repeating the key of READERS' record
REPEATS = {
    "bindings": "@contactname\tother.fst",
    "catalog": "Ada  LOVELACE\t-2",
    "members": "@contactname\tada\t-0.5",
    "refs": "contacts-0\tcall grace hopper",
}


@pytest.mark.parametrize("name", sorted(REPEATS))
def test_a_repeated_key_is_refused_at_its_line(tmp_path, name):
    read, record, _ = READERS[name]
    path = tmp_path / "keyed.txt"
    path.write_text(f"{record}\n# a comment\n\n{REPEATS[name]}\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:4: duplicate "):
        read(path)


def test_a_binding_tag_is_stripped_and_must_be_a_class_tag(tmp_path):
    read = _lines(context.read_bindings, tags=frozenset({"@contactname", "@appname"}))
    path = tmp_path / "bindings.tsv"
    # A space before the tab leaves the same tag, which the line repeats.
    path.write_text("@contactname\tc.fst\n@contactname \tother.fst\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:2: duplicate "):
        read(path)
    path.write_text("@appname \ta.fst\n# typo\n@contactnme\tc.fst\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match=(
            f"^{re.escape(str(path))}:3: the class automaton has no tag '@contactnme'$")):
        read(path)
    path.write_text("@appname \ta.fst\n@contactname\tc.fst\n", encoding="utf-8")
    assert read(path) == {"@appname": context.Binding("a.fst"),
                          "@contactname": context.Binding("c.fst")}


def test_a_catalog_entry_names_its_line_in_builder_errors(tmp_path):
    path = tmp_path / "catalog.tsv"
    path.write_text("ada lovelace\t-1\n\nada\t-2\n", encoding="utf-8")
    entries = fst.load_catalog(path)
    assert [e.where for e in entries] == [f"{path}:1", f"{path}:3"]
    with pytest.raises(InputFormatError,
                       match=f"^{re.escape(str(path))}:3: conflicting weights -1.0 vs -2.0 "):
        fst.build_catalog_fst(entries)
