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
a subset of a valid corpus is never validated again.  :class:`Document`
objects are built only when asked for, by ``Corpus.documents`` or
iteration.

A record's output line is its input line, newline added where missing,
when ``_RECORD_RE`` matches that line whole, which proves it equals the
encoding of the record (:meth:`Document.json_line`): the canonical field
layout (id, published_at, source, title, body, then language if given,
with ``", "`` and ``": "`` separators), every string free of quotes,
backslashes and control characters, so ``json.dumps(...,
ensure_ascii=False)`` would write it as it stands, and published_at as
``YYYY-MM-DDTHH:MM:SSZ``, which formats back to itself.  Such a line is
read without ``json.loads``.  Every other line, and a matched one whose
date does not exist or whose text has no token, is decoded, validated
field by field and encoded, so its error reads the same either way.

Text is tokenized word by word: a whitespace-separated word's term ids
are computed once per load and looked up for every later occurrence.
Case folding maps each character on its own and no whitespace character
folds to a letter or digit, so the tokens of a text are the tokens of
its words in order.

A tokenized corpus is one :class:`TermTable`: every term is interned
once into a vocabulary, and each document is a row of CSR arrays (its
token stream of term ids, and its distinct terms with their counts in
order of first appearance).  Queries, tf-idf and document vectors all
work on these arrays.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from functools import cached_property
from itertools import chain
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
# included; S stands for a character that JSON writes as it stands, so
# no string needs an escape, and the instant is one that
# format_timestamp writes back unchanged.  Groups: id, published_at
# without its "Z", source, title, body.
_RECORD_RE = re.compile(
    (
        r'\{"id": "(S+)", "published_at": "([0-9]{4}-[0-9]{2}-[0-9]{2}'
        r'T[0-9]{2}:[0-9]{2}:[0-9]{2})Z", "source": "(S*)", "title": "(S*)",'
        r' "body": "(S*)"(?:, "language": "S*")?\}\n'
    ).replace("S", r'[^"\\\x00-\x1f]')
)
# one encoder for every line: json.dumps would build one per record
_JSON_ENCODER = json.JSONEncoder(ensure_ascii=False)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_NAIVE_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)
_DAY_MICROS = 86_400_000_000
_EPOCH_ORDINAL = _EPOCH.toordinal()


class CorpusFormatError(DataError):
    """A corpus file or record violates the expected JSONL format."""


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

    def day(self) -> date:
        """Calendar date of publication (UTC); a naive time is taken as UTC."""
        if self.published_at.tzinfo is None:
            return self.published_at.date()
        return self.published_at.astimezone(timezone.utc).date()

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
    is sorted by name.  ``lines`` are the rows' JSONL lines, newline
    included.  Row ``i``'s tokens, stopwords included, are
    ``term_ids[indptr[i]:indptr[i + 1]]`` over ``vocab``.  A row's
    :class:`Document` is built from its line and timestamp on demand.
    """

    ids: list[str]
    micros: np.ndarray
    days: np.ndarray
    sources: list[str]
    source_ids: np.ndarray
    lines: list[str]
    vocab: list[str]
    indptr: np.ndarray
    term_ids: np.ndarray

    @classmethod
    def build(
        cls,
        ids: list[str],
        micros: list[int],
        sources: list[str],
        lines: list[str],
        vocab: list[str],
        lengths: list[int],
        term_ids: list[int],
    ) -> DocumentTable:
        """The table of id-unique rows given in any order."""
        by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
        stamps = np.array(micros, dtype=np.int64)
        order = by_id[np.argsort(stamps[by_id], kind="stable")]
        names = sorted(set(sources))
        rank = {name: i for i, name in enumerate(names)}
        source_ids = np.fromiter(map(rank.__getitem__, sources), dtype=np.int64, count=len(sources))
        entries, indptr = csr_take(csr_offsets(np.array(lengths, dtype=np.int64)), order)
        stamps = stamps[order]
        listed = order.tolist()
        return cls(
            ids=[ids[i] for i in listed],
            micros=stamps,
            days=stamps // _DAY_MICROS + _EPOCH_ORDINAL,
            sources=names,
            source_ids=source_ids[order],
            lines=[lines[i] for i in listed],
            vocab=vocab,
            indptr=indptr,
            term_ids=np.array(term_ids, dtype=np.int64)[entries],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def document(self, row: int) -> Document:
        obj = json.loads(self.lines[row])
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

    __hash__ = None

    def __repr__(self) -> str:
        return f"<Corpus of {len(self)} documents>"

    def __iter__(self):
        return iter(self.documents)

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
        return self._column(self.table.lines)

    @property
    def days(self) -> np.ndarray:
        """UTC day ordinal of each document, ascending."""
        return self.table.days[self.rows]

    @property
    def documents(self) -> list[Document]:
        return [self.table.document(i) for i in self.rows.tolist()]

    def subset(self, keep: np.ndarray) -> Corpus:
        """The documents where ``keep`` (one bool per document) holds."""
        return Corpus(self.table, self.rows[keep])


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


def csr_take(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry indices of ``rows``, row after row, and the row pointer of
    the rows so taken."""
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
    ``len()`` is the number of documents and iteration yields their ids.
    A table tokenized from a corpus keeps it: its rows are the corpus's
    documents, in order.
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
        # one key per (row, term); np.unique finds each key's first
        # position, and ordering those positions restores text order
        token_rows = csr_entry_rows(indptr)
        keys = token_rows * len(vocab) + term_ids
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        by_position = np.argsort(first)
        first = first[by_position]
        return cls(
            doc_ids=doc_ids,
            vocab=vocab,
            indptr=indptr,
            term_ids=term_ids,
            row_ptr=csr_offsets(np.bincount(token_rows[first], minlength=len(doc_ids))),
            row_terms=term_ids[first],
            row_counts=counts[by_position],
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
    the table's token streams with the stopwords' ids dropped."""
    table = corpus.table
    entries, indptr = csr_take(table.indptr, corpus.rows)
    term_ids = table.term_ids[entries]
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
    split = text.split()
    try:
        return list(chain.from_iterable(map(words.__getitem__, split)))
    except KeyError:
        pass
    ids: list[int] = []
    for word in split:
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
) -> tuple[str, int, str, list[int], str]:
    """Validate one record line, which ends in a newline; return its id,
    UTC microseconds, source, term ids (by :func:`_term_ids`) and output
    line."""
    match = _RECORD_RE.fullmatch(line)
    if match is not None:
        doc_id, stamp, source, title, body = match.groups()
        try:
            micros = (datetime.fromisoformat(stamp) - _NAIVE_EPOCH) // _MICROSECOND
        except ValueError:
            pass  # decoded below, which reports the error
        else:
            terms = _term_ids(title + " " + body, vocab, words)
            if terms:
                return doc_id, micros, source, terms, line
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {line_no}: invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"line {line_no}: record must be a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in obj:
            raise CorpusFormatError(f"line {line_no}: missing key {key!r}")
        if key != "published_at" and not isinstance(obj[key], str):
            raise CorpusFormatError(f"line {line_no}: key {key!r} must be a string")
    doc_id, stamp, source = obj["id"], obj["published_at"], obj["source"]
    title, body = obj["title"], obj["body"]
    if not doc_id:
        raise CorpusFormatError(f"line {line_no}: empty id")
    try:
        instant = parse_timestamp(str(stamp))
    except ValueError as exc:
        raise CorpusFormatError(f"line {line_no}: bad published_at: {exc}") from None
    micros = (instant - _EPOCH) // _MICROSECOND
    language = obj.get("language")
    if language is not None and not isinstance(language, str):
        raise CorpusFormatError(f"line {line_no}: language must be a string")
    terms = _term_ids(title + " " + body, vocab, words)
    if not terms:
        raise CorpusFormatError(f"line {line_no}: document {doc_id!r} has no tokens")
    return doc_id, micros, source, terms, _encode_line(
        doc_id, format_timestamp(instant), source, title, body, language
    )


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
    return f"file {path} is not valid UTF-8"


def read_line_file(path: str | Path) -> list[tuple[int, str, str]]:
    """(line number, data, comment) of each line holding data, both
    parts stripped; '#' starts the comment.  A leading UTF-8 byte order
    mark is dropped.  A file that is not UTF-8 is a DataError naming the
    file and the line."""
    entries = []
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            for line_no, line in enumerate(handle, start=1):
                data, _, comment = line.partition("#")
                if data.strip():
                    entries.append((line_no, data.strip(), comment.strip()))
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
    lines: list[str] = []
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
            if lines[prior] != out:
                raise CorpusFormatError(
                    f"line {line_no}: duplicate id {doc_id!r} with differing content"
                )
            continue
        row_of[doc_id] = len(ids)
        ids.append(doc_id)
        micros.append(instant)
        sources.append(source)
        lines.append(out)
        lengths.append(len(terms))
        term_ids.extend(terms)
    table = DocumentTable.build(ids, micros, sources, lines, list(vocab), lengths, term_ids)
    return Corpus(table, np.arange(len(table), dtype=np.int64))


def load_corpus(path: str | Path) -> Corpus:
    """Load a JSONL corpus file by the rules of :func:`_read_lines`.
    A leading UTF-8 byte order mark is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            corpus = _read_lines(enumerate(handle, start=1))
    except UnicodeDecodeError:
        raise CorpusFormatError(_decode_error_message(path)) from None
    if not len(corpus):
        raise CorpusFormatError(f"corpus file {path} contains no records")
    return corpus


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus back out as JSONL; load_corpus(save_corpus(c)) == c."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(corpus.lines)


def read_terms(path: str | Path) -> list[str]:
    """Normalized, non-empty terms of a term file, one per line, '#'
    starting a comment; a repeated term keeps its first place."""
    terms = (normalize_term(data) for _, data, _ in read_line_file(path))
    return list(dict.fromkeys(t for t in terms if t))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Stopword file: one term per line, '#' starts a comment."""
    return frozenset(read_terms(path))


def filter_by_query(corpus: Corpus, query: FlowQuery, tokenized: TermTable) -> Corpus:
    """Order-preserving subset of docs matching the query."""
    return corpus.subset(query.matches(tokenized.select(corpus)))


def filter_by_dates(corpus: Corpus, date_from: date, date_to: date) -> Corpus:
    """Inclusive date-range subset."""
    if date_from > date_to:
        raise ValueError(f"date_from {date_from} is after date_to {date_to}")
    days = corpus.days
    lo = np.searchsorted(days, date_from.toordinal(), side="left")
    hi = np.searchsorted(days, date_to.toordinal(), side="right")
    return Corpus(corpus.table, corpus.rows[lo:hi])
