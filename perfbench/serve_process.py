"""The server side of ``serve_sessions``: a ``QuarryServer`` over the
TPC-H domain in a process of its own, so the load generator never
shares its interpreter lock.

It prints ``{"port": ...}`` once the socket listens, then reads one
command per line on stdin:

* ``trace`` - install the layer wrappers (the traced run) and answer
  ``{"tracing": true}`` once they are in place;
* ``stats`` - print one JSON line: peak RSS, repository documents and,
  when tracing, the per-layer metrics and the per-operation breakdown;
* ``quit`` - shut the server down, write the spans when tracing, and
  exit.

Run by ``serve_sessions``; not meant to be started by hand.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src")]

from repro.repository.metadata import MetadataRepository  # noqa: E402
from repro.serve.server import QuarryServer, SessionManager  # noqa: E402
from repro.sources import tpch  # noqa: E402

from common import peak_rss_mb, spans_path  # noqa: E402
from layers import Layers  # noqa: E402
from spans import Recorder, breakdown  # noqa: E402


def stats(repository: MetadataRepository, layers) -> dict:
    store = repository.store
    payload = {
        "peak_rss_mb": peak_rss_mb(),
        "repository_documents": sum(
            len(store.collection(name)) for name in store.collection_names()
        ),
    }
    if layers is not None:
        payload["metrics"] = layers.metrics()
        payload["breakdown"] = breakdown(layers.recorder.spans)
    return payload


def main() -> int:
    repository = MetadataRepository()
    manager = SessionManager(
        tpch.ontology(), tpch.schema(), tpch.mappings(), repository=repository
    )
    layers = None
    server = QuarryServer(manager).start()
    print(json.dumps({"port": server.port}), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                if layers is None:
                    layers = Layers(Recorder())
                    layers.install(serve=True)
                print(json.dumps({"tracing": True}), flush=True)
            elif command == "stats":
                print(json.dumps(stats(repository, layers)), flush=True)
            elif command == "quit":
                break
    finally:
        server.shutdown()
        if layers is not None:
            layers.recorder.restore()
            layers.recorder.write(spans_path("serve_sessions-server"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
