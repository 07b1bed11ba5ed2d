"""Unit tests for the document store: CRUD, predicate scans, persistence."""

import json

import pytest

from repro.errors import (
    DocumentNotFoundError,
    DuplicateDocumentError,
    RepositoryError,
)
from repro.repository import Collection, DocumentStore


@pytest.fixture
def designs():
    collection = Collection("designs")
    collection.insert(
        {"_id": "d1", "kind": "md", "cost": 10, "meta": {"author": "ann"}}
    )
    collection.insert(
        {"_id": "d2", "kind": "etl", "cost": 25, "meta": {"author": "bob"}}
    )
    collection.insert({"_id": "d3", "kind": "md", "cost": 40})
    return collection


class TestCrud:
    def test_insert_and_get_returns_copy(self, designs):
        document = designs.get("d1")
        document["kind"] = "mutated"
        assert designs.get("d1")["kind"] == "md"

    def test_insert_requires_id(self, designs):
        with pytest.raises(RepositoryError):
            designs.insert({"kind": "x"})

    def test_duplicate_insert_rejected(self, designs):
        with pytest.raises(DuplicateDocumentError):
            designs.insert({"_id": "d1"})

    def test_replace_upserts(self, designs):
        designs.replace({"_id": "d1", "kind": "replaced"})
        assert designs.get("d1") == {"_id": "d1", "kind": "replaced"}
        designs.replace({"_id": "d9", "kind": "new"})
        assert designs.has("d9")

    def test_delete(self, designs):
        designs.delete("d1")
        assert not designs.has("d1")
        with pytest.raises(DocumentNotFoundError):
            designs.delete("d1")

    def test_delete_where(self, designs):
        assert designs.delete_where(lambda d: d["kind"] == "md") == 2
        assert designs.ids() == ["d2"]
        assert designs.delete_where(lambda d: d["kind"] == "md") == 0

    def test_len(self, designs):
        assert len(designs) == 3
        designs.delete("d2")
        assert len(designs) == 2


class TestQueries:
    def test_equality(self, designs):
        found = designs.find(lambda d: d["kind"] == "md")
        assert [d["_id"] for d in found] == ["d1", "d3"]

    def test_find_without_predicate_returns_all(self, designs):
        assert [d["_id"] for d in designs.find()] == ["d1", "d2", "d3"]

    def test_results_are_copies(self, designs):
        found = designs.find(lambda d: d["_id"] == "d1")[0]
        found["kind"] = "mutated"
        assert designs.get("d1")["kind"] == "md"

    def test_order_survives_delete_and_replace(self):
        collection = Collection("order")
        for doc_id in ("a", "b", "c"):
            collection.insert({"_id": doc_id})
        collection.delete("b")
        collection.replace({"_id": "a", "v": 2})  # keeps its position
        collection.insert({"_id": "b"})  # re-inserted: now last
        assert [doc["_id"] for doc in collection.find()] == ["a", "c", "b"]
        assert collection.ids() == ["a", "c", "b"]


class TestStore:
    def test_collections_created_on_demand(self):
        store = DocumentStore()
        assert "c" not in store
        store.collection("c").insert({"_id": "1"})
        assert "c" in store
        assert store.collection_names() == ["c"]


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, designs):
        from repro.repository import store as file_store

        store = DocumentStore("db")
        store._collections["designs"] = designs
        path = tmp_path / "store.json"
        file_store.save(store, path)
        loaded = file_store.load(path)
        assert loaded.name == "db"
        assert len(loaded.collection("designs")) == 3
        assert loaded.collection("designs").get("d1")["meta"] == {
            "author": "ann"
        }

    def test_load_missing_file_raises(self, tmp_path):
        from repro.repository import store as file_store

        with pytest.raises(RepositoryError):
            file_store.load(tmp_path / "missing.json")

    def test_load_malformed_raises(self, tmp_path):
        from repro.repository import store as file_store

        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(RepositoryError):
            file_store.load(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"collections": []},
            {"collections": {"c": {"_id": "x"}}},
            {"collections": {"c": [1]}},
            {"collections": {"c": [None]}},
            {"collections": {"c": [{"_id": ["x"]}]}},
        ],
        ids=[
            "collections-not-object",
            "collection-not-list",
            "document-int",
            "document-null",
            "unhashable-id",
        ],
    )
    def test_load_rejects_malformed_shape(self, tmp_path, payload):
        from repro.repository import store as file_store

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(RepositoryError):
            file_store.load(path)

    def test_load_rejects_duplicate_ids(self, tmp_path):
        from repro.repository import store as file_store

        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps({"collections": {"c": [{"_id": "x"}, {"_id": "x"}]}})
        )
        with pytest.raises(DuplicateDocumentError):
            file_store.load(path)

    def test_load_ignores_indexes_key(self, tmp_path):
        """Stores saved while collections declared secondary indexes
        carry an ``"indexes"`` key; it holds nothing a load needs."""
        from repro.repository import store as file_store

        path = tmp_path / "indexed.json"
        path.write_text(
            json.dumps(
                {
                    "collections": {"c": [{"_id": "x", "k": 1}]},
                    "indexes": ["k"],
                }
            )
        )
        loaded = file_store.load(path)
        assert loaded.collection("c").find() == [{"_id": "x", "k": 1}]
