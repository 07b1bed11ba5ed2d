"""Fixture-snippet tests pinning every QRY9xx rule, positive and negative.

Each test writes a small module to ``tmp_path``, runs the analyzer
over it alone, and asserts on the diagnostics — the static rules are
exercised against code written *to* violate them, since the package
itself lints clean.
"""

import textwrap

from repro.analysis.concurrency.driver import CodeLintContext, code_lint
from repro.analysis.concurrency.extract import extract_paths


def _lint(tmp_path, source, only=None):
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source))
    context = CodeLintContext.analyze(extract_paths([path]))
    report, __, __ = code_lint(context, only=only)
    return report


def _codes(report):
    return [diagnostic.code for diagnostic in report.diagnostics]


class TestLockOrderInversion:
    def test_ab_ba_cycle_detected(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.locks import new_lock

            class Left:
                def __init__(self, right):
                    self._lock = new_lock("Left._lock")
                    self.right = right

                def poke(self):
                    with self._lock:
                        self.right.prod()  # calls: Right.prod

            class Right:
                def __init__(self, left):
                    self._lock = new_lock("Right._lock")
                    self.left = left

                def prod(self):
                    with self._lock:
                        pass

                def reverse(self):
                    with self._lock:
                        self.left.poke()  # calls: Left.poke
            """,
            only=["QRY901"],
        )
        assert _codes(report) == ["QRY901"]
        finding = report.diagnostics[0]
        assert "Left._lock" in finding.message
        assert "Right._lock" in finding.message
        assert finding.fingerprint.startswith("QRY901:")

    def test_consistent_order_is_clean(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.locks import new_lock

            class Outer:
                def __init__(self, inner):
                    self._lock = new_lock("Outer._lock")
                    self.inner = inner

                def poke(self):
                    with self._lock:
                        self.inner.prod()  # calls: Inner.prod

            class Inner:
                def __init__(self):
                    self._lock = new_lock("Inner._lock")

                def prod(self):
                    with self._lock:
                        pass
            """,
            only=["QRY901"],
        )
        assert _codes(report) == []


class TestSelfDeadlock:
    def test_nested_nonreentrant_with(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.locks import new_lock

            class Box:
                def __init__(self):
                    self._lock = new_lock("Box._lock")

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
            """,
            only=["QRY902"],
        )
        assert _codes(report) == ["QRY902"]

    def test_self_call_reacquire(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.locks import new_lock

            class Box:
                def __init__(self):
                    self._lock = new_lock("Box._lock")

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """,
            only=["QRY902"],
        )
        assert _codes(report) == ["QRY902"]
        assert "inner" in report.diagnostics[0].message

    def test_reentrant_is_clean(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.locks import new_rlock

            class Box:
                def __init__(self):
                    self._lock = new_rlock("Box._lock")

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """,
            only=["QRY902"],
        )
        assert _codes(report) == []


class TestBlockingUnderLock:
    def test_pool_submit_under_lock(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.locks import new_lock

            class Runner:
                def __init__(self, pool):
                    self._lock = new_lock("Runner._lock")
                    self._pool = pool

                def go(self, task):
                    with self._lock:
                        return self._pool.submit(task).result()
            """,
            only=["QRY903"],
        )
        codes = _codes(report)
        assert codes == ["QRY903", "QRY903"]  # submit + result
        assert all("Runner._lock" in d.message for d in report.diagnostics)

    def test_transitive_blocking_via_helper(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            import pickle
            from repro.locks import new_lock

            class Cache:
                def __init__(self):
                    self._lock = new_lock("Cache._lock")

                def _encode(self, value):
                    return pickle.dumps(value)

                def put(self, value):
                    with self._lock:
                        return self._encode(value)
            """,
            only=["QRY903"],
        )
        assert _codes(report) == ["QRY903"]
        assert "pickling" in report.diagnostics[0].message
        assert "_encode" in report.diagnostics[0].message

    def test_blocking_outside_lock_is_clean(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.locks import new_lock

            class Runner:
                def __init__(self, pool):
                    self._lock = new_lock("Runner._lock")
                    self._pool = pool

                def go(self, task):
                    with self._lock:
                        pending = task
                    return self._pool.submit(pending).result()
            """,
            only=["QRY903"],
        )
        assert _codes(report) == []


class TestGuardedBy:
    SOURCE = """
        from repro.locks import new_lock

        class Counter:
            def __init__(self):
                self._lock = new_lock("Counter._lock")
                self._count = 0  # guarded-by: Counter._lock

            def bump(self):
                {bump_body}

            def read(self):
                with self._lock:
                    return self._count
    """

    def test_unguarded_write_flagged(self, tmp_path):
        report = _lint(
            tmp_path,
            self.SOURCE.format(bump_body="self._count += 1"),
            only=["QRY904"],
        )
        assert _codes(report) == ["QRY904"]
        assert "Counter._count" in report.diagnostics[0].message

    def test_guarded_write_clean(self, tmp_path):
        body = "with self._lock:\n                    self._count += 1"
        report = _lint(
            tmp_path,
            self.SOURCE.format(bump_body=body),
            only=["QRY904"],
        )
        assert _codes(report) == []

    def test_private_helper_inherits_callers_lock(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.locks import new_lock

            class Counter:
                def __init__(self):
                    self._lock = new_lock("Counter._lock")
                    self._count = 0  # guarded-by: Counter._lock

                def bump(self):
                    with self._lock:
                        self._bump_locked()

                def _bump_locked(self):
                    self._count += 1
            """,
            only=["QRY904"],
        )
        assert _codes(report) == []

    def test_writes_only_tolerates_bare_reads(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.locks import new_lock

            class Cache:
                def __init__(self):
                    self._lock = new_lock("Cache._lock")
                    self._value = None  # guarded-by: Cache._lock [writes]

                def get(self):
                    value = self._value
                    if value is None:
                        with self._lock:
                            value = self._value
                            if value is None:
                                value = object()
                                self._value = value
                    return value

                def racy_write(self):
                    self._value = None
            """,
            only=["QRY904"],
        )
        assert _codes(report) == ["QRY904"]
        assert "racy_write" == report.diagnostics[0].attribute.split(".")[-1]


class TestManualAcquire:
    def test_acquire_without_finally_release(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.locks import new_lock

            class Box:
                def __init__(self):
                    self._lock = new_lock("Box._lock")

                def risky(self):
                    self._lock.acquire()
                    do_work()
                    self._lock.release()
            """,
            only=["QRY906"],
        )
        assert _codes(report) == ["QRY906"]

    def test_finally_release_is_clean(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.locks import new_lock

            class Box:
                def __init__(self):
                    self._lock = new_lock("Box._lock")

                def careful(self):
                    self._lock.acquire()
                    try:
                        do_work()
                    finally:
                        self._lock.release()
            """,
            only=["QRY906"],
        )
        assert _codes(report) == []


class TestUnresolvedAcquire:
    def test_opaque_lock_reported_info(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            def touch(thing):
                with thing.custom_lock:
                    pass
            """,
            only=["QRY907"],
        )
        assert _codes(report) == ["QRY907"]
        assert report.ok  # INFO severity: does not fail the gate

    def test_lock_annotation_resolves_it(self, tmp_path):
        report = _lint(
            tmp_path,
            """
            from repro.locks import new_lock

            class Thing:
                def __init__(self):
                    self.custom_lock = new_lock("Thing.custom_lock")

            def touch(thing):
                with thing.custom_lock:  # lock: Thing.custom_lock
                    pass
            """,
            only=["QRY907"],
        )
        assert _codes(report) == []


class TestWaivers:
    def test_waived_finding_suppressed_and_stale_reported(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text(
            textwrap.dedent(
                """
                from repro.locks import new_lock

                class Box:
                    def __init__(self):
                        self._lock = new_lock("Box._lock")

                    def outer(self):
                        with self._lock:
                            with self._lock:
                                pass
                """
            )
        )
        context = CodeLintContext.analyze(extract_paths([path]))
        report, __, __ = code_lint(context, only=["QRY902"])
        fingerprint = report.diagnostics[0].fingerprint
        waivers = {fingerprint: object(), "QRY902:stale:gone": object()}
        report, waived, unused = code_lint(
            context, only=["QRY902"], waivers=waivers
        )
        assert report.ok and not report.diagnostics
        assert [d.fingerprint for d in waived] == [fingerprint]
        assert unused == ["QRY902:stale:gone"]
