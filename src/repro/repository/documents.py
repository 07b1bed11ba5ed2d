"""An embedded document store: named collections of JSON documents.

Documents are plain JSON-compatible dicts with a required ``_id``.
Reads are by id or by predicate scan: ``find(where)`` and
``delete_where(where)`` take an optional Python callable over the
document, which is all the metadata catalog ever asks of its storage.
Collections keep insertion order: a replace keeps a document's
position, a delete followed by an insert moves it to the end.

Collections are thread-safe: every public read and write holds the
collection's reentrant lock, so concurrent design sessions can share one
store.  The lock is per collection — sessions namespacing their state
into distinct collections never contend with each other.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.locks import new_rlock

from repro.errors import (
    DocumentNotFoundError,
    DuplicateDocumentError,
    RepositoryError,
)

#: A document filter: ``True`` keeps the document.
Predicate = Callable[[dict], bool]


class Collection:
    """One named collection of documents."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: Reentrant so compound writes (``bulk_load`` -> ``insert``)
        #: and callers that already hold the lock both work.
        self._lock = new_rlock("Collection._lock")
        self._documents: Dict[str, dict] = {}  # guarded-by: Collection._lock

    # -- writes -----------------------------------------------------------

    def insert(self, document: dict) -> str:
        """Insert a document; ``_id`` is required and must be fresh."""
        if "_id" not in document:
            raise RepositoryError("document needs an '_id'")
        doc_id = document["_id"]
        with self._lock:
            if doc_id in self._documents:
                raise DuplicateDocumentError(
                    f"document {doc_id!r} already in collection {self.name!r}"
                )
            self._documents[doc_id] = dict(document)
        return doc_id

    def replace(self, document: dict) -> str:
        """Insert or overwrite by ``_id`` (upsert)."""
        if "_id" not in document:
            raise RepositoryError("document needs an '_id'")
        doc_id = document["_id"]
        with self._lock:
            self._documents[doc_id] = dict(document)
        return doc_id

    def bulk_load(self, documents: Iterable[dict]) -> int:
        """Insert many documents under one lock hold; returns the count.

        The persistence layer uses this to repopulate a collection
        atomically — readers never observe a half-loaded collection.
        """
        with self._lock:
            count = 0
            for document in documents:
                self.insert(document)
                count += 1
            return count

    def delete(self, doc_id: str) -> None:
        with self._lock:
            if doc_id not in self._documents:
                raise DocumentNotFoundError(self.name, doc_id)
            del self._documents[doc_id]

    def delete_where(self, where: Predicate) -> int:
        """Delete every document ``where`` accepts; returns the count.

        Atomic: no reader sees the collection half-deleted.
        """
        with self._lock:
            doomed = [
                doc_id
                for doc_id, document in self._documents.items()
                if where(document)
            ]
            for doc_id in doomed:
                del self._documents[doc_id]
            return len(doomed)

    # -- reads ---------------------------------------------------------------

    def get(self, doc_id: str) -> dict:
        with self._lock:
            if doc_id not in self._documents:
                raise DocumentNotFoundError(self.name, doc_id)
            return dict(self._documents[doc_id])

    def has(self, doc_id: str) -> bool:
        with self._lock:
            return doc_id in self._documents

    def find(self, where: Optional[Predicate] = None) -> List[dict]:
        """Copies of the documents ``where`` accepts (all of them when
        ``where`` is ``None``), in insertion order."""
        with self._lock:
            return [
                dict(document)
                for document in self._documents.values()
                if where is None or where(document)
            ]

    def ids(self) -> List[str]:
        with self._lock:
            return list(self._documents)

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)


class DocumentStore:
    """A set of named collections (one MongoDB database)."""

    def __init__(self, name: str = "quarry") -> None:
        self.name = name
        self._lock = new_rlock("DocumentStore._lock")
        self._collections: Dict[str, Collection] = {}  # guarded-by: DocumentStore._lock

    def collection(self, name: str) -> Collection:
        """Get (creating on first use) a collection."""
        with self._lock:
            if name not in self._collections:
                self._collections[name] = Collection(name)
            return self._collections[name]

    def collection_names(self) -> List[str]:
        with self._lock:
            return list(self._collections)

    def snapshot(self) -> Dict[str, List[dict]]:
        """A point-in-time view of every collection, taken atomically.

        Acquires the store lock plus every per-collection lock in a
        stable (name-sorted) order before reading anything, so a
        snapshot concurrent with writing sessions can never persist a
        torn view — e.g. a bus event without the artefact it announces.
        The store lock is held throughout, so collections created
        mid-snapshot wait rather than appear half-included.  Writers
        only ever take a single collection lock, so the ordered
        acquisition cannot deadlock against them.
        """
        with self._lock:
            collections = [
                self._collections[name]
                for name in sorted(self._collections)
            ]
            acquired: List[Collection] = []
            try:
                for collection in collections:
                    collection._lock.acquire()  # lock: Collection._lock
                    acquired.append(collection)
                return {
                    collection.name: collection.find()  # calls: Collection.find
                    for collection in collections
                }
            finally:
                for collection in reversed(acquired):
                    collection._lock.release()  # lock: Collection._lock

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._collections
