"""The HTTP front door: routing, lifecycle, isolation, concurrency."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.server import MAX_BODY_BYTES, QuarryServer, tpch_manager
from repro.serve.smoke import demo_xrq


@pytest.fixture(scope="module")
def server():
    with QuarryServer(tpch_manager()) as running:
        yield running


def call(server, method, path, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        server.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}")


class TestRouting:
    def test_healthz(self, server):
        status, payload = call(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_unknown_route_is_404(self, server):
        status, payload = call(server, "GET", "/nope")
        assert status == 404
        assert "error" in payload

    def test_unknown_session_is_404(self, server):
        status, __ = call(server, "GET", "/sessions/ghost/status")
        assert status == 404

    def test_invalid_session_name_is_400(self, server):
        status, payload = call(
            server, "POST", "/sessions", {"name": "no/slashes"}
        )
        assert status == 400
        assert "session name" in payload["error"]

    def test_malformed_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/sessions",
            data=b"not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 400


def _raw_post_status(server, content_length: str) -> str:
    """POST /sessions with only headers sent; the reply's status code."""
    with socket.create_connection(
        (server.host, server.port), timeout=10
    ) as connection:
        connection.sendall(
            f"POST /sessions HTTP/1.1\r\n"
            f"Host: {server.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode("latin-1")
        )
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = connection.recv(4096)
            if not chunk:
                break
            reply += chunk
    status_line = reply.split(b"\r\n", 1)[0].decode("ascii")
    assert status_line.startswith("HTTP/"), status_line
    return status_line.split()[1]


class TestContentLength:
    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", "\u00b2"])
    def test_invalid_content_length_is_400(self, server, value):
        # Raw socket: HTTP clients refuse to send such a header.  A
        # negative length must not reach rfile.read(-1), which blocks the
        # handler until the client hangs up; the socket timeout turns
        # such a hang into a failure here.
        assert _raw_post_status(server, value) == "400"

    @pytest.mark.parametrize(
        "value", [str(MAX_BODY_BYTES + 1), str(1 << 40)]
    )
    def test_oversized_body_is_413_before_reading(self, server, value):
        # No body follows the headers: a server that tried to read the
        # declared length would wait (or fail to allocate 1 TiB) instead
        # of answering.
        assert _raw_post_status(server, value) == "413"


class TestLifecycle:
    def test_full_design_round_trip(self, server):
        status, __ = call(server, "POST", "/sessions", {"name": "life"})
        assert status == 201
        status, __ = call(server, "POST", "/sessions", {"name": "life"})
        assert status == 409

        status, report = call(
            server,
            "POST",
            "/sessions/life/requirements",
            {"xrq": demo_xrq("IR1")},
        )
        assert status == 201
        assert report["requirement_id"] == "IR1"
        assert report["action"] == "added"

        status, listed = call(
            server, "GET", "/sessions/life/requirements"
        )
        assert (status, listed) == (200, {"requirements": ["IR1"]})

        status, summary = call(server, "GET", "/sessions/life/status")
        assert status == 200
        assert summary["requirements"] == ["IR1"]
        assert summary["facts"] and summary["dimensions"]

        status, design = call(server, "GET", "/sessions/life/design")
        assert status == 200
        assert design["etl_operations"] == len(design["operators"])

        status, deployed = call(
            server, "POST", "/sessions/life/deploy", {"platform": "sql"}
        )
        assert status == 200
        assert deployed["platform"] == "sql"
        assert deployed["artifacts"]

        status, removal = call(
            server, "DELETE", "/sessions/life/requirements/IR1"
        )
        assert status == 200
        assert removal["action"] == "removed"
        __, listed = call(server, "GET", "/sessions/life/requirements")
        assert listed["requirements"] == []

    def test_duplicate_requirement_is_409(self, server):
        call(server, "POST", "/sessions", {"name": "dup"})
        call(
            server,
            "POST",
            "/sessions/dup/requirements",
            {"xrq": demo_xrq("IR2")},
        )
        status, payload = call(
            server,
            "POST",
            "/sessions/dup/requirements",
            {"xrq": demo_xrq("IR2")},
        )
        assert status == 409
        assert "already exists" in payload["error"]

    def test_unknown_platform_is_400(self, server):
        call(server, "POST", "/sessions", {"name": "plat"})
        call(
            server,
            "POST",
            "/sessions/plat/requirements",
            {"xrq": demo_xrq("IR2")},
        )
        status, payload = call(
            server, "POST", "/sessions/plat/deploy", {"platform": "warp"}
        )
        assert status == 400
        assert "unknown platform" in payload["error"]


class TestConcurrency:
    def test_concurrent_sessions_stay_isolated(self, server):
        names = [f"conc{index}" for index in range(8)]
        barrier = threading.Barrier(len(names))

        def lifecycle(name):
            barrier.wait(timeout=30)
            status, __ = call(
                server, "POST", "/sessions", {"name": name}
            )
            assert status == 201
            status, report = call(
                server,
                "POST",
                f"/sessions/{name}/requirements",
                {"xrq": demo_xrq("IR1")},
            )
            assert status == 201, report
            status, summary = call(
                server, "GET", f"/sessions/{name}/status"
            )
            assert status == 200
            return summary["requirements"]

        with ThreadPoolExecutor(max_workers=len(names)) as pool:
            results = list(pool.map(lifecycle, names))
        assert results == [["IR1"]] * len(names)

    def test_concurrent_writes_to_one_session_serialise(self, server):
        call(server, "POST", "/sessions", {"name": "hammer"})
        barrier = threading.Barrier(6)

        def add(index):
            barrier.wait(timeout=30)
            return call(
                server,
                "POST",
                "/sessions/hammer/requirements",
                {"xrq": demo_xrq(f"IR{index + 10}")},
            )[0]

        with ThreadPoolExecutor(max_workers=6) as pool:
            statuses = list(pool.map(add, range(6)))
        assert statuses == [201] * 6
        __, listed = call(
            server, "GET", "/sessions/hammer/requirements"
        )
        assert sorted(listed["requirements"]) == [
            f"IR{index + 10}" for index in range(6)
        ]


def poll_job(server, name, job_id, timeout=30.0):
    """Poll a background job until it leaves queued/running."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = call(
            server, "GET", f"/sessions/{name}/jobs/{job_id}"
        )
        assert status == 200
        if payload["state"] not in ("queued", "running"):
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} still {payload['state']}")


class TestBackgroundDeploy:
    def test_background_deploy_round_trip(self, server):
        call(server, "POST", "/sessions", {"name": "bg"})
        call(
            server,
            "POST",
            "/sessions/bg/requirements",
            {"xrq": demo_xrq("IR1")},
        )
        status, accepted = call(
            server,
            "POST",
            "/sessions/bg/deploy",
            {"platform": "sql", "background": True},
        )
        assert status == 202
        assert accepted["state"] == "queued"
        job_id = accepted["job"]
        assert accepted["status_url"] == f"/sessions/bg/jobs/{job_id}"

        finished = poll_job(server, "bg", job_id)
        assert finished["state"] == "done"
        # The job result is the same payload a synchronous deploy
        # returns.
        assert finished["result"]["platform"] == "sql"
        assert finished["result"]["artifacts"]

        status, listed = call(server, "GET", "/sessions/bg/jobs")
        assert status == 200
        assert {"job": job_id, "state": "done", "platform": "sql"} in (
            listed["jobs"]
        )

    def test_background_deploys_run_in_submission_order(self, server):
        call(server, "POST", "/sessions", {"name": "bgorder"})
        call(
            server,
            "POST",
            "/sessions/bgorder/requirements",
            {"xrq": demo_xrq("IR1")},
        )
        ids = []
        for __ in range(3):
            status, accepted = call(
                server,
                "POST",
                "/sessions/bgorder/deploy",
                {"platform": "sql", "background": True},
            )
            assert status == 202
            ids.append(accepted["job"])
        for job_id in ids:
            assert poll_job(server, "bgorder", job_id)["state"] == "done"
        __, listed = call(server, "GET", "/sessions/bgorder/jobs")
        assert [job["job"] for job in listed["jobs"]] == ids

    def test_failed_background_deploy_reports_error(self, server):
        call(server, "POST", "/sessions", {"name": "bgfail"})
        status, accepted = call(
            server,
            "POST",
            "/sessions/bgfail/deploy",
            {"platform": "warp", "background": True},
        )
        assert status == 202  # accepted; the failure surfaces on the job
        finished = poll_job(server, "bgfail", accepted["job"])
        assert finished["state"] == "error"
        assert "unknown platform" in finished["error"]
        assert "result" not in finished

    def test_unknown_job_is_404(self, server):
        call(server, "POST", "/sessions", {"name": "bg404"})
        status, payload = call(
            server, "GET", "/sessions/bg404/jobs/job-99"
        )
        assert status == 404
        assert "unknown job" in payload["error"]

    def test_jobs_of_unknown_session_are_404(self, server):
        status, __ = call(server, "GET", "/sessions/ghost/jobs")
        assert status == 404
        status, __ = call(server, "GET", "/sessions/ghost/jobs/job-1")
        assert status == 404


class TestDeployLockRelease:
    def test_foreground_deploy_does_not_block_reads(self):
        # A deploy that stalls in the (slow) build phase must not hold
        # the session lock: status reads land while it is in flight.
        manager = tpch_manager()
        manager.create("slow")
        with manager.locked("slow") as session:
            session.add_requirement_xrq(demo_xrq("IR1"))
            deployment = session.deployment
        build_started = threading.Event()
        release_build = threading.Event()
        original_build = deployment.build

        def stalled_build(*args, **kwargs):
            build_started.set()
            assert release_build.wait(timeout=30)
            return original_build(*args, **kwargs)

        deployment.build = stalled_build
        try:
            outcome = {}

            def run_deploy():
                outcome["result"] = manager.deploy("slow", "sql")

            deployer = threading.Thread(target=run_deploy)
            deployer.start()
            assert build_started.wait(timeout=30)
            # Deploy is mid-build.  A status read must not queue
            # behind it.
            read_done = threading.Event()

            def read_status():
                with manager.locked("slow") as session:
                    session.status()
                read_done.set()

            reader = threading.Thread(target=read_status)
            reader.start()
            assert read_done.wait(timeout=5), (
                "status read blocked behind a running deploy"
            )
            release_build.set()
            deployer.join(timeout=30)
            reader.join(timeout=5)
            assert outcome["result"].artifacts
        finally:
            release_build.set()
            deployment.build = original_build

    def test_deploy_still_records_and_announces(self):
        # The two-phase split must not lose the bookkeeping phase.
        from repro.core.services.deployment import (
            KIND_DEPLOYED,
            TOPIC_DEPLOYMENTS,
        )

        manager = tpch_manager()
        manager.create("book")
        with manager.locked("book") as session:
            session.add_requirement_xrq(demo_xrq("IR1"))
        result = manager.deploy("book", "sql")
        assert result.artifacts
        with manager.locked("book") as session:
            envelopes = session.bus.events(TOPIC_DEPLOYMENTS)
            assert any(
                envelope.kind == KIND_DEPLOYED for envelope in envelopes
            )
