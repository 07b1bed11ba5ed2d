"""JSON-file persistence for a :class:`DocumentStore`.

One JSON file per store: ``{"name": ..., "collections": {name: [docs]}}``.
Loading recreates collections and documents verbatim; an ``"indexes"``
key, written by stores that declared secondary indexes, is ignored.
Documents must be JSON-serialisable (the metadata layer guarantees this
by converting XML artefacts through :mod:`repro.xformats.xmljson`
first).
"""

from __future__ import annotations

import json
import os
import tempfile

from repro.errors import RepositoryError
from repro.repository.documents import DocumentStore


def save(store: DocumentStore, path) -> None:
    """Write the store atomically (write-then-rename).

    The in-memory view is captured via :meth:`DocumentStore.snapshot`,
    which holds every per-collection lock (in stable order) for the
    duration of the read — a save concurrent with writing sessions
    persists a consistent point in time, never a torn one.
    """
    payload = {"name": store.name, "collections": store.snapshot()}
    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as file:
            json.dump(payload, file, indent=1, sort_keys=True)
        os.replace(temp_path, path)
    except Exception:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def _check_shape(collections) -> None:
    """Reject anything but ``{name: [{"_id": str, ...}, ...]}``."""
    if not isinstance(collections, dict):
        raise RepositoryError(
            "malformed document store file: 'collections' is not an object"
        )
    for name, documents in collections.items():
        if not isinstance(documents, list):
            raise RepositoryError(
                f"malformed document store file: collection {name!r} "
                f"is not a list"
            )
        for document in documents:
            if not isinstance(document, dict) or not isinstance(
                document.get("_id"), str
            ):
                raise RepositoryError(
                    f"malformed document store file: collection {name!r} "
                    f"holds {document!r:.80}, not a document with a "
                    f"string '_id'"
                )


def load(path) -> DocumentStore:
    """Read a store back from disk.

    Every malformed file raises :class:`RepositoryError`; a duplicate
    ``_id`` within a collection raises its subclass
    :class:`DuplicateDocumentError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as file:
            payload = json.load(file)
    except (OSError, json.JSONDecodeError) as exc:
        raise RepositoryError(f"cannot load document store: {exc}") from exc
    if not isinstance(payload, dict) or "collections" not in payload:
        raise RepositoryError("malformed document store file")
    _check_shape(payload["collections"])
    store = DocumentStore(name=payload.get("name", "quarry"))
    for collection_name, documents in payload["collections"].items():
        # One lock hold per collection: a reader that grabs the store
        # mid-load sees each collection either empty or complete.
        store.collection(collection_name).bulk_load(documents)
    return store
