"""JSON-lines framing for the distributed campaign protocol.

Scheduler and workers exchange newline-delimited JSON messages over a
plain TCP socket — one JSON object per line, UTF-8, no length prefix.
The format is deliberately debuggable with ``nc``/``telnet`` and keeps
the wire layer free of pickle (a worker never unpickles scheduler
bytes, and vice versa).

Messages never sort keys: cell values round-trip through
:func:`repro.campaign.model.canonical_value`, whose dict-order
preservation is what keeps rendered table columns byte-identical across
backends, and a sorting serializer would destroy that on the wire.

Authentication
--------------
With a shared secret (``--secret`` / ``$REPRO_SECRET``) every frame
carries an HMAC-SHA256 trailer::

    {"type":...,...} <nonce>:<seq>:<hex mac>\\n

The MAC covers the exact JSON body bytes plus a *receiver-issued*
nonce and a per-connection monotonic sequence number.  Each endpoint
opens the connection by sending an ``auth`` hello naming the nonce it
demands on inbound frames; every later frame must carry that nonce and
a strictly increasing ``seq``, so a frame replayed within a connection
— or recorded from an earlier connection — fails verification.  The
MAC is checked on the raw bytes *before* the JSON is parsed: an
unauthenticated peer is dropped before any of its JSON is trusted.

The trailer authenticates and orders frames; it does **not** encrypt
them (run the fleet on a trusted network or inside a tunnel if cell
parameters are confidential).
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import socket
import time

from repro.errors import CampaignError

#: Upper bound on one framed message (a cell value is a JSON dict of
#: metrics, not a bulk artifact); a peer exceeding it is dropped rather
#: than allowed to balloon the buffer.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: Environment fallback for the fleet's shared secret, read wherever a
#: ``--secret`` flag (or ``secret=`` parameter) is left unset.
SECRET_ENV = "REPRO_SECRET"


def resolve_secret(secret=None):
    """The shared fleet secret: explicit value > ``$REPRO_SECRET`` > None
    (None = unauthenticated plaintext frames, the historical protocol)."""
    return secret if secret else (os.environ.get(SECRET_ENV) or None)


def parse_hostport(text, what="address"):
    """``(host, port)`` from ``"HOST:PORT"``; raises on malformed input.

    IPv6 literals use the standard bracket form (``[::1]:7764``); the
    brackets are stripped from the returned host.  A bare-colon IPv6
    host (``::1:7764``) is rejected rather than silently split at the
    wrong colon.
    """
    host, sep, port = str(text).rpartition(":")
    if not sep or not host or not port.isdigit():
        raise CampaignError(
            f"bad {what} {text!r}: expected HOST:PORT (e.g. 127.0.0.1:7764)")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
        if not host:
            raise CampaignError(
                f"bad {what} {text!r}: empty IPv6 literal")
    elif ":" in host:
        raise CampaignError(
            f"bad {what} {text!r}: bracket IPv6 literals "
            f"(e.g. [::1]:7764)")
    return host, int(port)


def format_address(address):
    """``"host:port"`` for a ``(host, port)`` pair (IPv6 bracketed)."""
    host, port = address[0], address[1]
    if ":" in str(host):
        return f"[{host}]:{port}"
    return f"{host}:{port}"


class WireAuth:
    """Shared-secret HMAC-SHA256 authentication for framed messages."""

    def __init__(self, secret):
        if not secret:
            raise CampaignError("wire auth needs a non-empty secret")
        self._key = secret.encode("utf-8") if isinstance(secret, str) \
            else bytes(secret)

    def mac(self, nonce, seq, body):
        """Hex MAC over ``nonce:seq:body`` (body = raw JSON bytes)."""
        message = b"%s:%d:" % (nonce, seq) + body
        return hmac.new(self._key, message, hashlib.sha256).hexdigest()

    def session(self):
        return WireSession(self)


class WireSession:
    """Per-connection authentication state, both directions.

    The session issues a random *local nonce* that the peer must MAC
    its frames with (learned from our ``auth`` hello) and signs our
    outbound frames with the *peer's* nonce (learned from its hello).
    Sequence numbers are per-sender, start at 1, and must strictly
    increase at the receiver — that is the anti-replay window.  With
    ``auth=None`` the session is a plaintext passthrough.
    """

    def __init__(self, auth=None):
        self.auth = auth
        self.local_nonce = os.urandom(12).hex().encode("ascii") \
            if auth else None
        self.peer_nonce = None
        self._send_seq = 0
        self._recv_seq = 0

    @property
    def enabled(self):
        return self.auth is not None

    @property
    def ready(self):
        """True once outbound frames can be signed (peer hello seen)."""
        return not self.enabled or self.peer_nonce is not None

    def hello(self):
        """The ``auth`` frame this endpoint must send first."""
        return {"type": "auth", "nonce": self.local_nonce.decode("ascii")}

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    def seal(self, body, message_type):
        """``body`` bytes with the authentication trailer appended."""
        if not self.enabled:
            return body
        if message_type == "auth":
            # The hello proves key possession over its own body; its
            # anti-replay value is the fresh nonce it carries, not its
            # sequence number.
            mac = self.auth.mac(b"", 0, body)
            return body + b" :0:" + mac.encode("ascii")
        if self.peer_nonce is None:
            raise CampaignError(
                "cannot sign frame: peer has not sent its auth hello")
        self._send_seq += 1
        mac = self.auth.mac(self.peer_nonce, self._send_seq, body)
        return (body + b" " + self.peer_nonce + b":"
                + str(self._send_seq).encode("ascii") + b":"
                + mac.encode("ascii"))

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def open_line(self, line):
        """Verify one raw frame; returns the body bytes, or None when
        the frame was an ``auth`` hello absorbed into session state.

        Raises :class:`CampaignError` on any verification failure — a
        missing trailer, a bad MAC, a foreign nonce, or a replayed
        sequence number — *before* the JSON body is parsed.
        """
        if not self.enabled:
            return line
        body, sep, trailer = line.rpartition(b" ")
        parts = trailer.split(b":") if sep else ()
        if len(parts) != 3:
            raise CampaignError(
                "unauthenticated frame from peer (no MAC trailer)")
        nonce, seq_text, mac = parts
        try:
            seq = int(seq_text)
        except ValueError:
            raise CampaignError("malformed auth trailer (bad seq)")
        if seq == 0 and not nonce:
            return self._absorb_hello(body, mac)
        if nonce != self.local_nonce:
            raise CampaignError(
                "frame MACed with a foreign nonce (replayed from "
                "another connection?)")
        expected = self.auth.mac(nonce, seq, body)
        if not hmac.compare_digest(expected.encode("ascii"), mac):
            raise CampaignError("frame failed MAC verification")
        if seq <= self._recv_seq:
            raise CampaignError(
                f"replayed or reordered frame (seq {seq} <= "
                f"{self._recv_seq})")
        self._recv_seq = seq
        return body

    def _absorb_hello(self, body, mac):
        expected = self.auth.mac(b"", 0, body)
        if not hmac.compare_digest(expected.encode("ascii"), mac):
            raise CampaignError("auth hello failed MAC verification")
        try:
            message = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CampaignError(f"bad auth hello: {error}")
        nonce = message.get("nonce") if isinstance(message, dict) else None
        if message.get("type") != "auth" or not isinstance(nonce, str) \
                or not nonce:
            raise CampaignError("bad auth hello payload")
        encoded = nonce.encode("ascii")
        if self.peer_nonce is not None and self.peer_nonce != encoded:
            raise CampaignError("peer changed its nonce mid-connection")
        self.peer_nonce = encoded
        return None


def encode_message(message, session=None):
    """One framed message: compact JSON (+ auth trailer) + newline
    (keys NOT sorted)."""
    body = json.dumps(message, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")
    if session is not None:
        body = session.seal(body, message.get("type"))
    return body + b"\n"


def send_message(sock, message, timeout=30.0, session=None):
    """Send one framed message completely, whatever the socket's
    configured recv timeout.

    A socket's configured timeout is meant for its reads; a partial
    ``sendall`` under a short one would corrupt the framing, so sends
    temporarily switch to a generous blocking window.
    """
    previous = sock.gettimeout()
    try:
        sock.settimeout(timeout)
        sock.sendall(encode_message(message, session=session))
    finally:
        try:
            sock.settimeout(previous)
        except OSError:  # pragma: no cover - socket died mid-send
            pass


class MessageBuffer:
    """Reassemble framed messages from a stream of received chunks.

    With an authenticated ``session``, every line is MAC-verified on
    its raw bytes before JSON parsing, and ``auth`` hello frames are
    absorbed into the session instead of surfacing to the caller.
    """

    def __init__(self, session=None):
        self._data = bytearray()
        self._session = session

    def feed(self, chunk):
        """Absorb ``chunk``; returns the list of completed messages.

        Raises :class:`CampaignError` on an unparseable line, an
        over-long frame, or an authentication failure — the caller
        should drop the connection.
        """
        self._data += chunk
        if len(self._data) > MAX_MESSAGE_BYTES:
            raise CampaignError(
                f"peer sent a frame over {MAX_MESSAGE_BYTES} bytes")
        messages = []
        while True:
            newline = self._data.find(b"\n")
            if newline < 0:
                return messages
            line = bytes(self._data[:newline])
            del self._data[:newline + 1]
            if not line.strip():
                continue
            if self._session is not None:
                line = self._session.open_line(line)
                if line is None:
                    continue  # auth hello, absorbed
            try:
                message = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                raise CampaignError(f"bad wire message: {error}")
            if not isinstance(message, dict) or "type" not in message:
                raise CampaignError(
                    f"wire message must be an object with a 'type': "
                    f"{line[:120]!r}")
            messages.append(message)


def disable_nagle(sock):
    """Send small frames at once, not after the peer's delayed ACK."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def connect_with_retry(host, port, retry_for=10.0, poll=0.2):
    """A connected socket to ``host:port``, retrying for ``retry_for``
    seconds (workers typically start before — or race — the scheduler)."""
    deadline = time.monotonic() + max(0.0, retry_for)
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(poll)
        else:
            disable_nagle(sock)
            return sock
