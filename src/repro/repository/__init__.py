"""The communication & metadata layer's storage repository.

The original system "uses a MongoDB instance as a storage repository"
(§2.6).  This package provides the embedded equivalent:

* :mod:`repro.repository.documents` — a document store of named
  collections, read by id or by predicate scan,
* :mod:`repro.repository.store` — JSON-file persistence of a store,
* :mod:`repro.repository.metadata` — the typed metadata catalog Quarry
  components read and write (requirements, partial/unified designs,
  ontologies, mappings), with XML↔JSON conversion at the boundary.
"""

from repro.repository.documents import Collection, DocumentStore
from repro.repository.metadata import MetadataRepository

__all__ = ["Collection", "DocumentStore", "MetadataRepository"]
