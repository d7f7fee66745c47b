"""Document collection handling for thematic news flows.

Loads timestamped, source-attributed documents from JSON Lines files,
normalizes their text into token streams, and filters them with boolean
queries (AND of OR-groups, plus exclusions) and date ranges.  All
operations are pure: they return new objects and never mutate inputs.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path

from .errors import DataError

# Unicode letter/digit runs; underscore is a separator, not a word character.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_MIN_TOKEN_LEN = 2
# A maximal run reaches _MIN_TOKEN_LEN exactly when that many word
# characters stand next to each other, so this finds whether a token exists.
_ANY_TOKEN_RE = re.compile(r"[^\W_]{%d,}" % _MIN_TOKEN_LEN, re.UNICODE)


class CorpusFormatError(DataError):
    """A corpus file or record violates the expected JSONL format."""


def _extract_tokens(text: str) -> list[str]:
    """Case-folded letter/digit runs of length >= 2, in order of appearance."""
    return [t for t in _TOKEN_RE.findall(text.casefold()) if len(t) >= _MIN_TOKEN_LEN]


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
class TokenizedDoc:
    """Normalized token stream of one document."""

    doc_id: str
    terms: list[str]
    term_counts: dict[str, int]

    @classmethod
    def from_terms(cls, doc_id: str, terms: list[str]) -> TokenizedDoc:
        return cls(doc_id=doc_id, terms=list(terms), term_counts=dict(Counter(terms)))

    def contains(self, term: str) -> bool:
        """True if the doc contains ``term``; phrases match adjacent runs."""
        words = term.split(" ")
        if len(words) == 1:
            return term in self.term_counts
        n = len(words)
        terms = self.terms
        return any(terms[i:i + n] == words for i in range(len(terms) - n + 1))


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

    def matches(self, tok: TokenizedDoc) -> bool:
        if any(tok.contains(t) for t in self.excluded_terms):
            return False
        return all(any(tok.contains(t) for t in group) for group in self.required_groups)


def tokenize(doc: Document, stopwords: frozenset[str] | set[str] = frozenset()) -> TokenizedDoc:
    """Tokenize title+body: case-fold, keep letter/digit runs of length >= 2,
    drop stopwords.  A doc may legitimately come out empty once stopwords
    are applied; downstream stages skip such docs."""
    terms = [t for t in _extract_tokens(doc.title + " " + doc.body) if t not in stopwords]
    return TokenizedDoc.from_terms(doc.id, terms)


def tokenize_corpus(
    corpus: Corpus, stopwords: frozenset[str] | set[str] = frozenset()
) -> dict[str, TokenizedDoc]:
    """Tokenized form of every document, keyed by doc id."""
    return {doc.id: tokenize(doc, stopwords) for doc in corpus}


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
        for doc in corpus:
            record = {
                "id": doc.id,
                "published_at": format_timestamp(doc.published_at),
                "source": doc.source,
                "title": doc.title,
                "body": doc.body,
            }
            if doc.language is not None:
                record["language"] = doc.language
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Stopword file: one term per line, '#' starts a comment."""
    terms = (normalize_term(data) for _, data, _ in read_line_file(path))
    return frozenset(t for t in terms if t)


def filter_by_query(
    corpus: Corpus, query: FlowQuery, tokenized: dict[str, TokenizedDoc]
) -> Corpus:
    """Order-preserving subset of docs matching the query."""
    missing = [d.id for d in corpus if d.id not in tokenized]
    if missing:
        raise ValueError(f"no tokenized form for doc ids: {missing[:5]}")
    kept = [d for d in corpus if query.matches(tokenized[d.id])]
    return Corpus(kept)


def filter_by_dates(corpus: Corpus, date_from: date, date_to: date) -> Corpus:
    """Inclusive date-range subset."""
    if date_from > date_to:
        raise ValueError(f"date_from {date_from} is after date_to {date_to}")
    kept = [d for d in corpus if date_from <= d.day() <= date_to]
    return Corpus(kept)
