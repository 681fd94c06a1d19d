"""Shared fixtures for the serving tests."""

from __future__ import annotations

import asyncio
import contextlib
import threading

import pytest


def _cancel_all(loop: asyncio.AbstractEventLoop) -> None:
    for task in asyncio.all_tasks(loop):
        task.cancel()


@contextlib.contextmanager
def _serving(server):
    """Run ``server.serve_forever`` on a daemon thread for the block, then
    unwind it the way Ctrl-C unwinds ``sptransx serve`` and close it."""
    started = threading.Event()
    failure = []

    def run() -> None:
        try:
            server.serve_forever(on_started=started.set)
        except asyncio.CancelledError:
            pass
        except BaseException as exc:  # noqa: BLE001 — surfaced to the test
            failure.append(exc)
        finally:
            started.set()

    thread = threading.Thread(target=run, name="pool-serving", daemon=True)
    thread.start()
    started.wait()
    try:
        if failure:
            raise failure[0]
        yield server
    finally:
        with contextlib.suppress(RuntimeError):  # the loop already ended
            server._loop.call_soon_threadsafe(_cancel_all, server._loop)
        thread.join(timeout=30.0)
        server.close()


@pytest.fixture(scope="session")
def pool_serving():
    """``with pool_serving(server):`` serves an ``AsyncInferenceServer``."""
    return _serving
