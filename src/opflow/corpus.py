"""Document collection handling for thematic news flows.

Loads timestamped, source-attributed documents from JSON Lines files,
normalizes their text into token streams, and filters them with boolean
queries (AND of OR-groups, plus exclusions) and date ranges.  All
operations are pure: they return new objects and never mutate inputs.

A corpus file is read in one validated pass into a
:class:`DocumentTable`: per document its id, its UTC timestamp as int64
microseconds, its UTC day ordinal, its source id (sources ranked by
name), its output line, and its interned token stream before stopwords,
all sorted by (published_at, id).  ``Corpus.from_documents`` reads
documents as the lines of such a file (each one's ``json_line``), so
every corpus passes the same validation, merge and sort rules.  A
:class:`Corpus` is an ascending array of rows of one table, so a query
filter is a mask, a date filter a ``searchsorted`` on day ordinals, and
a subset of a valid corpus is never validated again.  A corpus's
ids, lines and day ordinals are read through it (``ids``, ``lines``,
``days``).  :class:`Document` objects are built only when asked for,
one at a time, by iteration.

The output lines are one read-only UTF-8 buffer, in input order, and a
row's line is its ``starts``..``ends`` byte range: sorting a table
permutes the offsets, never the bytes.  ``save_corpus`` writes a corpus
as byte runs, one per maximal run of rows that lie back to back in the
buffer, so a sorted file's date range is one write.  The buffer is one
allocation, so :meth:`DocumentTable.release_lines` hands its memory
back to the system once the last corpus is written; a line read after
that raises ``ValueError``.

A record's output line is its input line, newline added where missing,
when ``_RECORD_RE`` matches that line whole, which proves it equals the
encoding of the record (:meth:`Document.json_line`): the canonical field
layout (id, published_at, source, title, body, then language if given,
with ``", "`` and ``": "`` separators), every string free of quotes,
backslashes and control characters, so ``json.dumps(...,
ensure_ascii=False)`` would write it as it stands, and published_at as
``YYYY-MM-DDTHH:MM:SSZ``, which formats back to itself.  Such a line is
read without ``json.loads``.  Every other line, and a matched one whose
date does not exist, is decoded, validated field by field and encoded.
Either way the record's text is then tokenized once, by one shared
tail, so a text with no token is the same error on both paths.

Text is tokenized word by word: a whitespace-separated word's term ids
are computed once per load and looked up for every later occurrence.
Case folding maps each character on its own and no whitespace character
folds to a letter or digit, so the tokens of a text are the tokens of
its words in order.

A tokenized corpus is one :class:`TermTable`: every term is interned
once into a vocabulary, and each document is a row of CSR arrays (its
token stream of term ids, and its distinct terms with their counts in
order of first appearance).  A corpus is tokenized from its own rows of
the table's streams.  Queries, tf-idf and document vectors all work on
these arrays.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError

# Unicode letter/digit runs of at least two characters, matched on
# case-folded text; underscore is a separator, not a word character.
# The engine tries each position left to right, so a match starts where
# a maximal run starts and takes all of it: the tokens are the maximal
# runs of length >= 2, and one search tells whether a text has a token.
_ANY_TOKEN_RE = re.compile(r"[^\W_]{2,}", re.UNICODE)
# a record line exactly as Document.json_line writes it, newline
# included; S stands for a character that JSON writes as it stands and
# UTF-8 encodes (no surrogate), so no string needs an escape, and the
# instant is one that format_timestamp writes back unchanged.  Groups:
# id, published_at without its "Z", source, title, body.
_RECORD_RE = re.compile(
    (
        r'\{"id": "(S+)", "published_at": "([0-9]{4}-[0-9]{2}-[0-9]{2}'
        r'T[0-9]{2}:[0-9]{2}:[0-9]{2})Z", "source": "(S*)", "title": "(S*)",'
        r' "body": "(S*)"(?:, "language": "S*")?\}\n'
    ).replace("S", r'[^"\\\x00-\x1f\ud800-\udfff]')
)
# the instants datetime.fromisoformat reads on Python 3.10, which 3.11
# widened to basic and week forms: YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]]
# [+HH:MM[:SS[.ffffff]]]], any one character for *
_ISO_INSTANT_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:.[0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"(?:[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?)?)?",
    re.DOTALL,
)
# one encoder for every line: json.dumps would build one per record
_JSON_ENCODER = json.JSONEncoder(ensure_ascii=False)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)
_DAY_MICROS = 86_400_000_000
_EPOCH_ORDINAL = _EPOCH.toordinal()
_WRITE_BLOCK = 1 << 17  # bytes of short runs that save_corpus joins into one write


def _extract_tokens(text: str) -> list[str]:
    """Case-folded letter/digit runs of length >= 2, in order of appearance."""
    return _ANY_TOKEN_RE.findall(text.casefold())


def normalize_term(text: str) -> str:
    """Normalize a query/lexicon entry to its canonical form.

    Single tokens stay single tokens; multi-word entries become a
    space-joined phrase of normalized tokens (matched as an adjacent
    token run).  Returns "" when nothing survives normalization.
    """
    return " ".join(_extract_tokens(text))


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 instant into an aware UTC datetime.

    Accepts a trailing "Z"; naive timestamps are taken as UTC.
    """
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    if _ISO_INSTANT_RE.fullmatch(text) is None:
        raise ValueError(f"Invalid isoformat string: {raw!r}")
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    """Inverse of :func:`parse_timestamp`, emitting the compact "Z" suffix;
    a naive datetime is taken as UTC."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def _encode_line(
    doc_id: str, stamp: str, source: str, title: str, body: str, language: str | None
) -> str:
    record = {"id": doc_id, "published_at": stamp, "source": source, "title": title, "body": body}
    if language is not None:
        record["language"] = language
    return _JSON_ENCODER.encode(record) + "\n"


@dataclass(frozen=True)
class Document:
    """One timestamped, source-attributed text."""

    id: str
    published_at: datetime
    source: str
    title: str
    body: str
    language: str | None = None

    @cached_property
    def json_line(self) -> str:
        """The document as one JSONL line, newline included."""
        return _encode_line(
            self.id, format_timestamp(self.published_at), self.source,
            self.title, self.body, self.language,
        )


@dataclass
class DocumentTable:
    """Documents as columns, one row each, sorted by (published_at, id).

    ``micros`` holds UTC microseconds since 1970-01-01 and ``days`` the
    ordinals of the UTC dates; ``source_ids`` index ``sources``, which
    is sorted by name.  Row ``i``'s JSONL line, newline included, is
    the UTF-8 of ``buffer[starts[i]:ends[i]]``; ``buffer`` is ``None``
    once the lines are released.  Row ``i``'s tokens, stopwords
    included, are ``term_ids[indptr[i]:indptr[i + 1]]`` over ``vocab``.
    A row's :class:`Document` is built from its line and timestamp on
    demand.
    """

    ids: list[str]
    micros: np.ndarray
    days: np.ndarray
    sources: list[str]
    source_ids: np.ndarray
    buffer: memoryview | None
    starts: np.ndarray
    ends: np.ndarray
    vocab: list[str]
    indptr: np.ndarray
    term_ids: np.ndarray

    @classmethod
    def build(
        cls,
        ids: list[str],
        micros: list[int],
        sources: list[str],
        buffer: bytearray,
        ends: list[int],
        vocab: list[str],
        lengths: list[int],
        term_ids: np.ndarray,
    ) -> DocumentTable:
        """The table of id-unique rows given in any order, row ``i``'s
        line the bytes of ``buffer`` up to ``ends[i]`` from the end of
        the row before.  Rows already in order, as every saved corpus
        is, are kept as given; other rows are sorted by their offsets,
        and the bytes stay where they are.  The token arrays are
        read-only, so a tokenized form may share them."""
        stamps = np.array(micros, dtype=np.int64)
        names = sorted(set(sources))
        rank = {name: i for i, name in enumerate(names)}
        source_ids = np.fromiter(map(rank.__getitem__, sources), dtype=np.int64, count=len(sources))
        indptr = csr_offsets(np.array(lengths, dtype=np.int64))
        bounds = np.zeros(len(ends) + 1, dtype=np.int64)
        bounds[1:] = ends
        starts, ends = bounds[:-1], bounds[1:]
        steps = np.diff(stamps)
        ties = np.flatnonzero(steps == 0).tolist()
        if not ((steps >= 0).all() and all(ids[i] < ids[i + 1] for i in ties)):
            by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
            order = by_id[np.argsort(stamps[by_id], kind="stable")]
            entries, indptr = csr_take(indptr, order)
            term_ids = term_ids[entries]
            stamps, source_ids = stamps[order], source_ids[order]
            starts, ends = starts[order], ends[order]
            ids = [ids[i] for i in order.tolist()]
        indptr.flags.writeable = term_ids.flags.writeable = False
        return cls(
            ids=ids,
            micros=stamps,
            days=stamps // _DAY_MICROS + _EPOCH_ORDINAL,
            sources=names,
            source_ids=source_ids,
            buffer=memoryview(buffer).toreadonly(),
            starts=starts,
            ends=ends,
            vocab=vocab,
            indptr=indptr,
            term_ids=term_ids,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def _lines(self) -> memoryview:
        if self.buffer is None:
            raise ValueError("the table's lines were freed by DocumentTable.release_lines()")
        return self.buffer

    def release_lines(self) -> None:
        """Free the line buffer; a line read after this raises ValueError."""
        self.buffer = None

    def document(self, row: int) -> Document:
        obj = json.loads(self._lines()[self.starts[row]:self.ends[row]].tobytes())
        return Document(
            id=obj["id"],
            published_at=_EPOCH + int(self.micros[row]) * _MICROSECOND,
            source=obj["source"],
            title=obj["title"],
            body=obj["body"],
            language=obj.get("language"),
        )


class Corpus:
    """Ordered, id-unique document collection: ascending rows of one
    :class:`DocumentTable`, so documents come sorted by (published_at, id).

    ``Corpus(table, rows)`` takes the rows as given; a corpus of
    documents comes from :meth:`from_documents` or :func:`load_corpus`,
    which read records by the same rules.
    """

    def __init__(self, table: DocumentTable, rows: np.ndarray) -> None:
        self.table = table
        self.rows = rows

    @classmethod
    def from_documents(cls, documents: Iterable[Document]) -> Corpus:
        """The corpus of the documents, read as the lines of a corpus
        file: an error names a document's 1-based position as its line."""
        return _read_lines(enumerate((d.json_line for d in documents), start=1))

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        # a line encodes its record exactly, so equal lines are equal records
        if not isinstance(other, Corpus):
            return NotImplemented
        return len(self) == len(other) and self.lines == other.lines

    def __iter__(self):
        # one at a time: a corpus's documents take many times its lines
        return map(self.table.document, self.rows.tolist())

    def _column(self, values: list) -> list:
        if len(self.rows) == len(self.table):
            return values
        return [values[i] for i in self.rows.tolist()]

    @property
    def ids(self) -> list[str]:
        return self._column(self.table.ids)

    @property
    def lines(self) -> list[str]:
        """JSONL line of each document, newline included."""
        table = self.table
        view = table._lines()
        spans = zip(table.starts[self.rows].tolist(), table.ends[self.rows].tolist())
        return [str(view[start:end], "utf-8") for start, end in spans]

    @property
    def days(self) -> np.ndarray:
        """UTC day ordinal of each document, ascending."""
        return self.table.days[self.rows]


@dataclass
class FlowQuery:
    """Boolean topic query: a doc matches if it hits ANY term of EVERY
    required group and contains no excluded term.  Terms are normalized
    tokens or space-joined phrases."""

    required_groups: list[frozenset[str]]
    excluded_terms: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        self.required_groups = [frozenset(g) for g in self.required_groups]
        self.excluded_terms = frozenset(self.excluded_terms)
        if not self.required_groups:
            raise ValueError("query needs at least one required group")
        for group in self.required_groups:
            if not group:
                raise ValueError("query group must be non-empty")
            overlap = group & self.excluded_terms
            if overlap:
                raise ValueError(
                    f"excluded terms overlap a required group: {sorted(overlap)}"
                )

    def matches(self, table: TermTable) -> np.ndarray:
        """Per row of the table, whether its document matches."""
        keep = ~table.contains_any(self.excluded_terms)
        for group in self.required_groups:
            keep &= table.contains_any(group)
        return keep


def csr_offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR row pointer (``indptr``) of rows with the given lengths."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def csr_entry_rows(indptr: np.ndarray) -> np.ndarray:
    """Row index of every entry of a CSR layout."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def csr_take(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray | slice, np.ndarray]:
    """Entry indices of ``rows``, row after row, and the row pointer of
    the rows so taken.  The entries of a run of consecutive rows are a
    slice, so what they index is a view, not a copy; the row pointer of
    a run whose entries start at 0 is a view of ``indptr``."""
    if len(rows) and (np.diff(rows) == 1).all():
        start, end = indptr[rows[0]], indptr[rows[-1] + 1]
        taken = indptr[rows[0]:rows[-1] + 2]
        return slice(start, end), taken - start if start else taken
    lengths = indptr[rows + 1] - indptr[rows]
    taken = csr_offsets(lengths)
    entries = np.repeat(indptr[rows] - taken[:-1], lengths) + np.arange(taken[-1])
    return entries, taken


@dataclass
class TermTable:
    """Tokenized documents over one interned vocabulary, as CSR arrays.

    Row ``i`` is document ``doc_ids[i]``; ``vocab[t]`` is the term of id
    ``t``.  The row's token stream, in text order, is
    ``term_ids[indptr[i]:indptr[i + 1]]``; phrases are matched on it.
    Its distinct terms, in order of first appearance, and their counts
    are ``row_terms`` and ``row_counts`` over ``row_ptr[i]:row_ptr[i + 1]``.
    ``len()`` is the number of documents.  Iteration yields ``doc_ids``
    for the benchmark's traced run, which reads a table's ids that way.
    A table tokenized from a corpus keeps it: its rows are the corpus's
    documents, in order.  A table selected from another shares its
    arrays when its rows are a run of the other's.
    """

    doc_ids: list[str]
    vocab: list[str]
    indptr: np.ndarray
    term_ids: np.ndarray
    row_ptr: np.ndarray
    row_terms: np.ndarray
    row_counts: np.ndarray
    corpus: Corpus | None = None

    @classmethod
    def from_terms(cls, rows: Iterable[tuple[str, list[str]]]) -> TermTable:
        """Intern the terms of (doc id, token list) rows, in order."""
        doc_ids: list[str] = []
        lengths: list[int] = []
        term_ids: list[int] = []
        index: dict[str, int] = {}
        for doc_id, terms in rows:
            doc_ids.append(doc_id)
            lengths.append(len(terms))
            term_ids.extend(index.setdefault(t, len(index)) for t in terms)
        return cls.from_stream(
            doc_ids, list(index), csr_offsets(np.array(lengths, dtype=np.int64)),
            np.array(term_ids, dtype=np.int64),
        )

    @classmethod
    def from_stream(
        cls,
        doc_ids: list[str],
        vocab: list[str],
        indptr: np.ndarray,
        term_ids: np.ndarray,
        corpus: Corpus | None = None,
    ) -> TermTable:
        """The table of token streams given as CSR arrays."""
        # One sort orders the tokens by (row, term, offset in the row):
        # a key packs (row*V + term)*width + offset, V the vocabulary
        # size and width the longest row, so keys stay below
        # rows*V*width.  A (row, term) group starts where key // width
        # changes; its count goes to its first token's position, so the
        # nonzero counts, read in text order, give each row's distinct
        # terms without a second sort.  The keys are built, and then
        # overwritten with the counts, in one buffer.
        n, n_terms = len(term_ids), len(vocab)
        lengths = np.diff(indptr)
        width = int(lengths.max(initial=0))
        keys = np.repeat(np.arange(len(lengths)) * (n_terms * width) - indptr[:-1], lengths)
        keys += np.arange(n)
        keys += term_ids * width
        keys.sort()
        groups = keys // width
        starts = np.ones(n, dtype=bool)
        np.not_equal(groups[1:], groups[:-1], out=starts[1:])
        first = np.flatnonzero(starts)
        # sorting kept each row's tokens in its own span of keys
        row_ptr = np.searchsorted(first, indptr)
        at = groups[first]
        del groups
        at //= n_terms
        at = indptr[at]
        offsets = keys[first]
        offsets %= width
        at += offsets  # each group's first token
        del offsets
        counts = keys  # the keys are spent: reuse their buffer
        counts.fill(0)
        counts[at[:-1]] = np.diff(first)  # a group runs to the next one
        counts[at[-1:]] = n - first[-1:]  # and the last to the end
        del at, first
        distinct = np.flatnonzero(counts)
        return cls(
            doc_ids=doc_ids,
            vocab=vocab,
            indptr=indptr,
            term_ids=term_ids,
            row_ptr=row_ptr,
            row_terms=term_ids[distinct],
            row_counts=counts[distinct],
            corpus=corpus,
        )

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __iter__(self):
        return iter(self.doc_ids)

    @cached_property
    def _term_index(self) -> dict[str, int]:
        """Term -> term id."""
        return {term: i for i, term in enumerate(self.vocab)}

    def select(self, corpus: Corpus) -> TermTable:
        """The rows of the corpus's documents, in corpus order, over the
        same vocabulary; the table itself when they are all its rows."""
        mine = self.corpus
        pos = np.zeros(len(corpus), dtype=np.int64)
        found = np.zeros(len(corpus), dtype=bool)
        if mine is not None and mine.table is corpus.table and len(mine):
            pos = np.minimum(np.searchsorted(mine.rows, corpus.rows), len(mine) - 1)
            found = mine.rows[pos] == corpus.rows
        if not found.all():
            ids = corpus.ids
            missing = [ids[i] for i in np.flatnonzero(~found)[:5].tolist()]
            raise ValueError(f"no tokenized form for doc ids: {missing}")
        if len(corpus) == len(self):
            return self
        tokens, indptr = csr_take(self.indptr, pos)
        distinct, row_ptr = csr_take(self.row_ptr, pos)
        return TermTable(
            doc_ids=corpus.ids,
            vocab=self.vocab,
            indptr=indptr,
            term_ids=self.term_ids[tokens],
            row_ptr=row_ptr,
            row_terms=self.row_terms[distinct],
            row_counts=self.row_counts[distinct],
            corpus=corpus,
        )

    def contains_any(self, terms: Iterable[str]) -> np.ndarray:
        """Per row, whether the document contains any of the terms.  A
        single term is looked up among the row's distinct terms; a phrase
        (space-joined terms) must occur as an adjacent run of tokens."""
        hit = np.zeros(len(self), dtype=bool)
        words = []
        for term in terms:
            ids = [self._term_index.get(w) for w in term.split(" ")]
            if None in ids:
                continue
            if len(ids) == 1:
                words.append(ids[0])
            else:
                hit[self._phrase_rows(ids)] = True
        if words:
            rows = csr_entry_rows(self.row_ptr)
            hit[rows[np.isin(self.row_terms, words)]] = True
        return hit

    def _phrase_rows(self, ids: list[int]) -> np.ndarray:
        """Rows whose token stream holds the run of term ids."""
        n = len(ids)
        stream = self.term_ids
        starts = np.flatnonzero(stream[: max(len(stream) - n + 1, 0)] == ids[0])
        for k, term_id in enumerate(ids[1:], start=1):
            starts = starts[stream[starts + k] == term_id]
        rows = np.searchsorted(self.indptr, starts, side="right") - 1
        return rows[starts + n <= self.indptr[rows + 1]]


def tokenize_corpus(
    corpus: Corpus, stopwords: frozenset[str] | set[str] = frozenset()
) -> TermTable:
    """Tokenized form of every document, one row each, in corpus order:
    the corpus's own token streams with the stopwords' ids dropped.  A
    run of rows from row 0, with no stopwords, shares the table's own
    read-only arrays."""
    table = corpus.table
    entries, indptr = csr_take(table.indptr, corpus.rows)
    term_ids = table.term_ids[entries]
    del entries
    if stopwords:
        dropped = np.array([term in stopwords for term in table.vocab], dtype=bool)
        kept = ~dropped[term_ids]
        lengths = np.bincount(csr_entry_rows(indptr)[kept], minlength=len(corpus))
        indptr = csr_offsets(lengths)
        term_ids = term_ids[kept]
    return TermTable.from_stream(corpus.ids, table.vocab, indptr, term_ids, corpus)


_REQUIRED_KEYS = ("id", "published_at", "source", "title", "body")


def _term_ids(text: str, vocab: dict[str, int], words: dict[str, tuple[int, ...]]) -> list[int]:
    """Term ids of the text's tokens, a new term interned at the next
    free id.  ``words`` maps each whitespace-separated word seen so far
    to the ids of its tokens; a new word is tokenized and entered."""
    ids: list[int] = []
    for word in text.split():
        known = words.get(word)
        if known is None:
            folded = word.casefold()
            # \w is str.isalnum plus "_", so an alphanumeric word of two
            # or more characters is one maximal run: its own single token
            if len(folded) >= 2 and folded.isalnum():
                known = (vocab.setdefault(folded, len(vocab)),)
            else:
                known = tuple(vocab.setdefault(t, len(vocab)) for t in _extract_tokens(word))
            words[word] = known
        ids.extend(known)
    return ids


def _parse_line(
    line: str, line_no: int, vocab: dict[str, int], words: dict[str, tuple[int, ...]]
) -> tuple[str, int, str, list[int], bytes]:
    """Validate one record line, which ends in a newline; return its id,
    UTC microseconds, source, term ids (by :func:`_term_ids`) and output
    line in UTF-8."""
    match = _RECORD_RE.fullmatch(line)
    micros = None
    if match is not None:
        doc_id, stamp, source, title, body = match.groups()
        try:
            micros = (datetime.fromisoformat(stamp) - _NAIVE_EPOCH) // _MICROSECOND
        except ValueError:
            pass  # decoded below, which reports the error
    if micros is None:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {line_no}: invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict):
            raise DataError(f"line {line_no}: record must be a JSON object")
        for key in _REQUIRED_KEYS:
            if key not in obj:
                raise DataError(f"line {line_no}: missing key {key!r}")
            if not isinstance(obj[key], str):
                raise DataError(f"line {line_no}: key {key!r} must be a string")
        doc_id, stamp, source = obj["id"], obj["published_at"], obj["source"]
        title, body = obj["title"], obj["body"]
        if not doc_id:
            raise DataError(f"line {line_no}: empty id")
        try:
            instant = parse_timestamp(stamp)
        except (ValueError, OverflowError) as exc:  # overflow: a range end moved to UTC
            raise DataError(f"line {line_no}: bad published_at: {exc}") from None
        micros = (instant - _EPOCH) // _MICROSECOND
        language = obj.get("language")
        if language is not None and not isinstance(language, str):
            raise DataError(f"line {line_no}: language must be a string")
        line = _encode_line(doc_id, format_timestamp(instant), source, title, body, language)
    try:  # an escape such as "\ud800" decodes to a lone surrogate
        data = line.encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(f"line {line_no}: a string holds a lone surrogate,"
                        " which UTF-8 cannot encode") from None
    terms = _term_ids(title + " " + body, vocab, words)
    if not terms:
        raise DataError(f"line {line_no}: document {doc_id!r} has no tokens")
    return doc_id, micros, source, terms, data


def _decode_error_message(path: str | Path) -> str:
    """Locate the first invalid UTF-8 byte of a file by its line.  The
    text reader decodes in chunks and cannot say where it failed, so the
    raw bytes are scanned again."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        return f"line {line_no}: invalid UTF-8: {exc.reason} (byte 0x{data[exc.start]:02x})"
    return "not valid UTF-8"


def read_line_file(path: str | Path) -> list[tuple[int, str]]:
    """(line number, data) of each line holding data, stripped; '#'
    starts a comment, which is dropped.  A leading UTF-8 byte order mark
    is dropped too.  A file that is not UTF-8 is a DataError naming the
    file and the line."""
    entries = []
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            for line_no, line in enumerate(handle, start=1):
                data = line.partition("#")[0].strip()
                if data:
                    entries.append((line_no, data))
    except UnicodeDecodeError:
        raise DataError(f"{path}: {_decode_error_message(path)}") from None
    return entries


def _read_lines(numbered: Iterable[tuple[int, str]]) -> Corpus:
    """The validated, sorted corpus of (line number, record line) pairs
    over a new document table; blank lines are skipped.

    Re-delivered records (same id, identical content) are merged silently;
    a duplicate id with differing content is an error.
    """
    ids: list[str] = []
    micros: list[int] = []
    sources: list[str] = []
    buffer = bytearray()  # the output lines, back to back
    ends: list[int] = []
    lengths: list[int] = []
    term_ids: list[int] = []
    vocab: dict[str, int] = {}
    words: dict[str, tuple[int, ...]] = {}
    row_of: dict[str, int] = {}
    for line_no, line in numbered:
        if not line.strip():
            continue
        if not line.endswith("\n"):
            line += "\n"
        doc_id, instant, source, terms, out = _parse_line(line, line_no, vocab, words)
        prior = row_of.get(doc_id)
        if prior is not None:
            # equal output lines are equal records
            if buffer[ends[prior - 1] if prior else 0:ends[prior]] != out:
                raise DataError(f"line {line_no}: duplicate id {doc_id!r} with differing content")
            continue
        row_of[doc_id] = len(ids)
        ids.append(doc_id)
        micros.append(instant)
        sources.append(source)
        buffer += out
        ends.append(len(buffer))
        lengths.append(len(terms))
        term_ids.extend(terms)
    tokens = np.array(term_ids, dtype=np.int64)
    del term_ids  # the array holds the stream now
    table = DocumentTable.build(ids, micros, sources, buffer, ends, list(vocab), lengths, tokens)
    return Corpus(table, np.arange(len(table), dtype=np.int64))


def load_corpus(path: str | Path) -> Corpus:
    """Load a JSONL corpus file by the rules of :func:`_read_lines`.
    A leading UTF-8 byte order mark is dropped.  A fault names the file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            corpus = _read_lines(enumerate(handle, start=1))
    except UnicodeDecodeError:
        raise DataError(f"{path}: {_decode_error_message(path)}") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not len(corpus):
        raise DataError(f"corpus file {path} contains no records")
    return corpus


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus back out as JSONL; load_corpus(save_corpus(c)) == c."""
    table = corpus.table
    view = table._lines()
    starts, ends = table.starts[corpus.rows], table.ends[corpus.rows]
    with open(path, "wb") as handle:
        if len(corpus):
            handle.writelines(_byte_blocks(view, starts, ends))


def _byte_blocks(view: memoryview, starts: np.ndarray, ends: np.ndarray) -> Iterable:
    """The byte ranges of a view of a whole buffer, in order, as few
    buffers.  A maximal run of ranges that lie back to back is one range.
    A run of at least ``_WRITE_BLOCK`` bytes is a slice of the view;
    shorter runs are copied out and joined, about ``_WRITE_BLOCK`` bytes
    at a time, since a write per run costs more than the copy when runs
    are single lines."""
    breaks = np.flatnonzero(starts[1:] != ends[:-1]) + 1
    starts, ends = starts[np.r_[0, breaks]], ends[np.r_[breaks - 1, -1]]
    sizes = ends - starts
    before = (np.cumsum(sizes) - sizes) // _WRITE_BLOCK
    long = sizes >= _WRITE_BLOCK
    # a block starts at each long run, after it, and at each multiple of the block size
    cuts = np.flatnonzero(np.r_[True, (before[1:] != before[:-1]) | long[1:] | long[:-1]])
    bounds = cuts.tolist() + [len(sizes)]
    starts, ends = starts.tolist(), ends.tolist()
    # short runs are sliced from the buffer itself: a memoryview slice is
    # tracked by the garbage collector, and one per line made saving a
    # reversed corpus about 10% slower
    data = view.obj
    for first, end in zip(bounds, bounds[1:]):
        if end - first == 1:
            yield view[starts[first]:ends[first]]
        else:
            yield b"".join(map(data.__getitem__, map(slice, starts[first:end], ends[first:end])))


def read_terms(path: str | Path) -> list[str]:
    """Normalized, non-empty terms of a term file, one per line, '#'
    starting a comment; a repeated term keeps its first place."""
    terms = (normalize_term(data) for _, data in read_line_file(path))
    return list(dict.fromkeys(t for t in terms if t))


def filter_by_query(corpus: Corpus, query: FlowQuery, tokenized: TermTable) -> Corpus:
    """Order-preserving subset of docs matching the query."""
    return Corpus(corpus.table, corpus.rows[query.matches(tokenized.select(corpus))])


def filter_by_dates(corpus: Corpus, date_from: date, date_to: date) -> Corpus:
    """Inclusive date-range subset."""
    if date_from > date_to:
        raise ValueError(f"date_from {date_from} is after date_to {date_to}")
    days = corpus.days
    lo = np.searchsorted(days, date_from.toordinal(), side="left")
    hi = np.searchsorted(days, date_to.toordinal(), side="right")
    return Corpus(corpus.table, corpus.rows[lo:hi])
