"""Authenticated wire envelopes: HMAC trailers, the nonce handshake,
replay rejection, and the fail-closed behaviour of mixed
plaintext/authenticated fleets — at the session layer and end-to-end
against a live scheduler."""

from __future__ import annotations

import os
import socket
import threading

import pytest

import repro.campaign.worker
from repro.campaign import Campaign, CellSpec, DistributedBackend
from repro.campaign.wire import (
    MessageBuffer,
    WireAuth,
    WireSession,
    encode_message,
    resolve_secret,
    send_message,
)
from repro.campaign.worker import run_worker
from repro.errors import CampaignError

pytestmark = pytest.mark.smoke


def add_cell(a, b):
    return {"sum": a + b}


def _paired_sessions(secret="s3cret"):
    """Two ready WireSessions that have exchanged hellos, as if the
    scheduler/worker handshake already ran."""
    auth = WireAuth(secret)
    left, right = WireSession(auth), WireSession(WireAuth(secret))
    left_buffer, right_buffer = MessageBuffer(left), MessageBuffer(right)
    assert list(right_buffer.feed(
        encode_message(left.hello(), session=left))) == []
    assert list(left_buffer.feed(
        encode_message(right.hello(), session=right))) == []
    assert left.ready and right.ready
    return (left, left_buffer), (right, right_buffer)


class TestWireSession:
    def test_handshake_then_round_trip(self):
        (left, left_buffer), (right, right_buffer) = _paired_sessions()
        frame = encode_message({"type": "result", "id": 7}, session=left)
        assert list(right_buffer.feed(frame)) == [{"type": "result",
                                                  "id": 7}]
        reply = encode_message({"type": "cell", "id": 8}, session=right)
        assert list(left_buffer.feed(reply)) == [{"type": "cell", "id": 8}]

    def test_tampered_frame_is_rejected(self):
        (left, _), (_, right_buffer) = _paired_sessions()
        frame = encode_message({"type": "result", "id": 7}, session=left)
        evil = frame.replace(b'"id":7', b'"id":9')
        assert evil != frame  # the payload really was altered
        with pytest.raises(CampaignError, match="MAC"):
            list(right_buffer.feed(evil))

    def test_wrong_secret_is_rejected(self):
        # A mismatched secret dies at the very first frame: the hello
        # itself fails verification, before any nonce is accepted.
        left = WireSession(WireAuth("alpha"))
        right_buffer = MessageBuffer(WireSession(WireAuth("beta")))
        with pytest.raises(CampaignError, match="MAC"):
            list(right_buffer.feed(
                encode_message(left.hello(), session=left)))

    def test_replayed_frame_is_rejected(self):
        (left, _), (_, right_buffer) = _paired_sessions()
        frame = encode_message({"type": "result", "id": 1}, session=left)
        assert list(right_buffer.feed(frame)) == [{"type": "result",
                                                  "id": 1}]
        # Capture-and-resend of the identical bytes: the sequence
        # number no longer advances, so the receiver drops the link.
        with pytest.raises(CampaignError, match="replay"):
            list(right_buffer.feed(frame))

    def test_cross_connection_replay_is_rejected(self):
        # Record a frame addressed to connection A, replay it into a
        # fresh connection B with the same secret: B issued a different
        # nonce, so the recorded MAC can never verify there.
        secret = "fleet"
        (left_a, _), (_, right_a_buffer) = _paired_sessions(secret)
        frame = encode_message({"type": "result", "id": 1}, session=left_a)
        assert list(right_a_buffer.feed(frame))
        (_, _), (right_b, right_b_buffer) = _paired_sessions(secret)
        assert right_b.ready
        with pytest.raises(CampaignError):
            list(right_b_buffer.feed(frame))

    def test_plaintext_frame_into_authed_session_fails_closed(self):
        (_, _), (_, right_buffer) = _paired_sessions()
        with pytest.raises(CampaignError):
            list(right_buffer.feed(b'{"type": "register"}\n'))

    def test_authed_frame_into_plaintext_session_fails_closed(self):
        (left, _), _ = _paired_sessions()
        plain_buffer = MessageBuffer(WireSession(None))
        frame = encode_message({"type": "result"}, session=left)
        with pytest.raises(CampaignError):
            list(plain_buffer.feed(frame))

    def test_resolve_secret_prefers_explicit_then_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SECRET", raising=False)
        assert resolve_secret(None) is None
        assert resolve_secret("flag") == "flag"
        monkeypatch.setenv("REPRO_SECRET", "from-env")
        assert resolve_secret(None) == "from-env"
        assert resolve_secret("flag") == "flag"
        monkeypatch.setenv("REPRO_SECRET", "")
        assert resolve_secret(None) is None


class TestUnauthenticatedPeer:
    def test_plaintext_attacker_never_reaches_the_result_path(self):
        """An unauthenticated socket talking to an authed scheduler is
        dropped before any of its JSON is trusted; a genuine worker on
        the same scheduler still completes the campaign."""
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     heartbeat_timeout=5.0,
                                     secret="fleet-secret")
        spec = CellSpec.make("tests.test_wire_auth:add_cell",
                             {"a": 2, "b": 3})
        host, port = backend.address
        outcome = {}

        def attack():
            # Register + a forged result for every plausible cell id,
            # all plaintext: none of it may ever be believed.
            try:
                sock = socket.create_connection((host, port), timeout=10)
                sock.settimeout(10)
                send_message(sock, {"type": "register", "name": "evil",
                                    "cores": 64})
                for cell_id in range(4):
                    send_message(sock, {
                        "type": "result", "id": cell_id,
                        "envelope": {"ok": True, "value": {"sum": -1},
                                     "elapsed": 0.0}})
                chunks = []
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    chunks.append(data)
                outcome["received"] = b"".join(chunks)
            except OSError as error:
                outcome["error"] = error
            finally:
                sock.close()

        try:
            attacker = threading.Thread(target=attack)
            attacker.start()
            worker = threading.Thread(
                target=run_worker,
                kwargs={"connect": f"{host}:{port}", "cores": 2,
                        "name": "honest", "secret": "fleet-secret"})
            worker.start()
            results = Campaign(backend=backend).run([spec])
            attacker.join(timeout=30)
            worker.join(timeout=30)
            assert not attacker.is_alive() and not worker.is_alive()
        finally:
            backend.close()
        # The honest worker's value won, not the forged one.
        assert results[0].ok and results[0].value == {"sum": 5}
        # The attacker saw at most the scheduler's hello before the
        # drop — never a cell assignment, never an acknowledgement.
        assert b'"cell"' not in outcome.get("received", b"")
        assert b'"job"' not in outcome.get("received", b"")

    def test_authed_worker_against_plaintext_scheduler_gives_up(
            self, monkeypatch):
        """Mismatch the other way round: a secret-bearing worker must
        not silently fall back to plaintext."""
        # The plaintext scheduler never sends an auth hello, so the
        # worker gives up at its handshake deadline; shorten the wait.
        monkeypatch.setattr(repro.campaign.worker, "_HANDSHAKE_SECONDS", 0.5)
        backend = DistributedBackend(bind="127.0.0.1:0", min_workers=1,
                                     heartbeat_timeout=5.0)
        host, port = backend.address
        rc = {}
        try:
            thread = threading.Thread(
                target=lambda: rc.update(code=run_worker(
                    f"{host}:{port}", cores=1, name="w",
                    secret="wrong-context", retry_for=0.0,
                    out=open(os.devnull, "w"))))
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert rc["code"] == 1
        finally:
            backend.close()
