"""Document collection handling for thematic news flows.

Loads timestamped, source-attributed documents from JSON Lines files,
normalizes their text into token streams, and filters them with boolean
queries (AND of OR-groups, plus exclusions) and date ranges.  All
operations are pure: they return new objects and never mutate inputs.

A tokenized corpus is one :class:`TermTable`: every term is interned
once into a vocabulary, and each document is a row of CSR arrays (its
token stream of term ids, and its distinct terms with their counts in
order of first appearance).  Queries, tf-idf and document vectors all
work on these arrays.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
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
# one encoder for every line: json.dumps would build one per record
_JSON_ENCODER = json.JSONEncoder(ensure_ascii=False)


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
    """Inverse of :func:`parse_timestamp`, emitting the compact "Z" suffix."""
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


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
        """Calendar date of publication (UTC)."""
        return self.published_at.date()

    @cached_property
    def json_line(self) -> str:
        """The document as one JSONL line, newline included; formatted on
        first use, so a document saved to several files is encoded once."""
        record = {
            "id": self.id,
            "published_at": format_timestamp(self.published_at),
            "source": self.source,
            "title": self.title,
            "body": self.body,
        }
        if self.language is not None:
            record["language"] = self.language
        return _JSON_ENCODER.encode(record) + "\n"


@dataclass
class Corpus:
    """Ordered, id-unique document collection.

    Documents are kept sorted ascending by (published_at, id); use
    :meth:`from_documents` to build from unordered input.
    """

    documents: list[Document] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        prev_key = None
        for doc in self.documents:
            if not doc.id:
                raise ValueError("document with empty id")
            if doc.id in seen:
                raise ValueError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
            key = (doc.published_at, doc.id)
            if prev_key is not None and key < prev_key:
                raise ValueError("documents not sorted by (published_at, id)")
            prev_key = key

    @classmethod
    def from_documents(cls, documents: list[Document]) -> Corpus:
        return cls(sorted(documents, key=lambda d: (d.published_at, d.id)))

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    @property
    def date_span(self) -> tuple[date, date]:
        """(earliest, latest) publication date; requires a non-empty corpus."""
        if not self.documents:
            raise ValueError("empty corpus has no date span")
        return self.documents[0].day(), max(d.day() for d in self.documents)


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
    """

    doc_ids: list[str]
    vocab: list[str]
    indptr: np.ndarray
    term_ids: np.ndarray
    row_ptr: np.ndarray
    row_terms: np.ndarray
    row_counts: np.ndarray

    @classmethod
    def from_terms(cls, rows: Iterable[tuple[str, list[str]]]) -> TermTable:
        """Intern the terms of (doc id, token list) rows, in order."""
        doc_ids: list[str] = []
        lengths: list[int] = []
        tokens: list[str] = []
        for doc_id, terms in rows:
            doc_ids.append(doc_id)
            lengths.append(len(terms))
            tokens.extend(terms)
        vocab = list(dict.fromkeys(tokens))
        index = {term: i for i, term in enumerate(vocab)}
        term_ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        indptr = csr_offsets(np.array(lengths, dtype=np.int64))
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
        )

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __iter__(self):
        return iter(self.doc_ids)

    @cached_property
    def _term_index(self) -> dict[str, int]:
        """Term -> term id."""
        return {term: i for i, term in enumerate(self.vocab)}

    @cached_property
    def _row_of(self) -> dict[str, int]:
        return {doc_id: i for i, doc_id in enumerate(self.doc_ids)}

    def take(self, corpus: Corpus) -> TermTable:
        """The rows of the corpus's documents, in corpus order, over the
        same vocabulary."""
        row_of = self._row_of
        missing = [d.id for d in corpus if d.id not in row_of]
        if missing:
            raise ValueError(f"no tokenized form for doc ids: {missing[:5]}")
        rows = np.array([row_of[d.id] for d in corpus], dtype=np.int64)
        tokens, indptr = csr_take(self.indptr, rows)
        distinct, row_ptr = csr_take(self.row_ptr, rows)
        return TermTable(
            doc_ids=[d.id for d in corpus],
            vocab=self.vocab,
            indptr=indptr,
            term_ids=self.term_ids[tokens],
            row_ptr=row_ptr,
            row_terms=self.row_terms[distinct],
            row_counts=self.row_counts[distinct],
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


def tokenize(doc: Document, stopwords: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """Tokens of title+body: case-folded letter/digit runs of length >= 2,
    stopwords dropped.  A doc may legitimately come out empty once
    stopwords are applied; downstream stages skip such docs."""
    tokens = _extract_tokens(doc.title + " " + doc.body)
    return [t for t in tokens if t not in stopwords] if stopwords else tokens


def tokenize_corpus(
    corpus: Corpus, stopwords: frozenset[str] | set[str] = frozenset()
) -> TermTable:
    """Tokenized form of every document, one row each, in corpus order."""
    return TermTable.from_terms((doc.id, tokenize(doc, stopwords)) for doc in corpus)


_REQUIRED_KEYS = ("id", "published_at", "source", "title", "body")


def _parse_record(obj: dict, line_no: int) -> Document:
    for key in _REQUIRED_KEYS:
        if key not in obj:
            raise CorpusFormatError(f"line {line_no}: missing key {key!r}")
        if key != "published_at" and not isinstance(obj[key], str):
            raise CorpusFormatError(f"line {line_no}: key {key!r} must be a string")
    if not obj["id"]:
        raise CorpusFormatError(f"line {line_no}: empty id")
    try:
        published = parse_timestamp(str(obj["published_at"]))
    except ValueError as exc:
        raise CorpusFormatError(f"line {line_no}: bad published_at: {exc}") from None
    language = obj.get("language")
    if language is not None and not isinstance(language, str):
        raise CorpusFormatError(f"line {line_no}: language must be a string")
    doc = Document(
        id=obj["id"],
        published_at=published,
        source=obj["source"],
        title=obj["title"],
        body=obj["body"],
        language=language,
    )
    if not _ANY_TOKEN_RE.search((doc.title + " " + doc.body).casefold()):
        raise CorpusFormatError(f"line {line_no}: document {doc.id!r} has no tokens")
    return doc


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
    parts stripped; '#' starts the comment.  A file that is not UTF-8
    is a DataError naming the file and the line."""
    entries = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                data, _, comment = line.partition("#")
                if data.strip():
                    entries.append((line_no, data.strip(), comment.strip()))
    except UnicodeDecodeError:
        raise DataError(f"{path}: {_decode_error_message(path)}") from None
    return entries


def load_corpus(path: str | Path) -> Corpus:
    """Load a JSONL corpus file into a validated, sorted Corpus.

    Re-delivered records (same id, identical content) are merged silently;
    a duplicate id with differing content is an error.
    """
    docs: dict[str, Document] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusFormatError(f"line {line_no}: invalid JSON: {exc.msg}") from None
                if not isinstance(obj, dict):
                    raise CorpusFormatError(f"line {line_no}: record must be a JSON object")
                doc = _parse_record(obj, line_no)
                prior = docs.get(doc.id)
                if prior is None:
                    docs[doc.id] = doc
                elif prior != doc:
                    raise CorpusFormatError(
                        f"line {line_no}: duplicate id {doc.id!r} with differing content"
                    )
    except UnicodeDecodeError:
        raise CorpusFormatError(_decode_error_message(path)) from None
    if not docs:
        raise CorpusFormatError(f"corpus file {path} contains no records")
    return Corpus.from_documents(list(docs.values()))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus back out as JSONL; load_corpus(save_corpus(c)) == c."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(doc.json_line for doc in corpus)


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Stopword file: one term per line, '#' starts a comment."""
    terms = (normalize_term(data) for _, data, _ in read_line_file(path))
    return frozenset(t for t in terms if t)


def filter_by_query(corpus: Corpus, query: FlowQuery, tokenized: TermTable) -> Corpus:
    """Order-preserving subset of docs matching the query."""
    keep = query.matches(tokenized.take(corpus))
    return Corpus([d for d, k in zip(corpus, keep.tolist()) if k])


def filter_by_dates(corpus: Corpus, date_from: date, date_to: date) -> Corpus:
    """Inclusive date-range subset."""
    if date_from > date_to:
        raise ValueError(f"date_from {date_from} is after date_to {date_to}")
    kept = [d for d in corpus if date_from <= d.day() <= date_to]
    return Corpus(kept)
