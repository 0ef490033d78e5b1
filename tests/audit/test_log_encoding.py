"""The audit log encodes each entry once, and the bytes match the
two-encode form it replaced: the hash body and the journal frame are the
same sorted-key JSON ``json.dumps`` would write for the whole dict."""

import hashlib
import json
import math
import struct
import zlib

from hypothesis import given, settings, strategies as st

from repro.audit.log import AuditEntry, AuditLog, _encode
from repro.store import Journal, StableStorage

HEADER = struct.Struct(">II")


def oracle(payload: dict) -> str:
    """The canonical encoding every hash and frame used to go through."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


class Opaque:
    """Not JSON-serializable: the encoder spells it with ``str``."""

    def __init__(self, tag: int) -> None:
        self.tag = tag

    def __str__(self) -> str:
        return f"<opaque {self.tag}>"


class Seconds(float):
    """A float subclass, so a scalar takes the encoder fallback."""


awkward_text = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r", "é☃😀",
                     "\ud800", ""]),
)
times = st.one_of(
    st.integers(),
    st.sampled_from([2**63, -2**64 - 1, 10**30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=False).map(Seconds),
)
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), awkward_text,
    st.integers(min_value=0, max_value=9).map(Opaque),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(awkward_text, inner, max_size=4)),
    max_leaves=12,
)
details = st.dictionaries(awkward_text, values, max_size=5)
entries = st.tuples(times, awkward_text, awkward_text, details)


@settings(max_examples=200, deadline=None)
@given(st.lists(entries, min_size=1, max_size=4))
def test_one_encode_matches_the_old_hash_body_and_journal_frame(drawn):
    storage = StableStorage()
    log = AuditLog(journal=Journal(storage, "d0.audit"))
    expected_blob = b""
    for seq, (time, kind, subject, detail) in enumerate(drawn, start=1):
        entry = log.append(time, kind, subject, detail)
        body = oracle({"index": entry.index, "time": entry.time,
                       "kind": entry.kind, "subject": entry.subject,
                       "detail": entry.detail, "prev": entry.prev_hash})
        text = "".join(_encode(entry.index, entry.time, entry.kind,
                               entry.subject, entry.detail, entry.prev_hash))
        assert text == body
        assert entry.entry_hash == AuditEntry.compute_hash(text)
        assert entry.entry_hash == hashlib.sha256(body.encode()).hexdigest()
        frame = oracle({"seq": seq, **entry.to_payload()}).encode("utf-8")
        expected_blob += HEADER.pack(len(frame), zlib.crc32(frame)) + frame
    assert storage.read("d0.audit") == expected_blob
    assert log.verify()


def count_encodes(monkeypatch) -> list:
    calls = []
    original = json.dumps

    def counting_dumps(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    return calls


def test_a_journaled_append_encodes_once(monkeypatch):
    log = AuditLog(journal=Journal(StableStorage(), "d0.audit"))
    calls = count_encodes(monkeypatch)
    for n in range(5):
        log.append(float(n), "decision", "d0", {"n": n, "tags": ["a", None]})
    assert len(calls) == 5


def test_a_volatile_append_encodes_once(monkeypatch):
    log = AuditLog()
    calls = count_encodes(monkeypatch)
    for n in range(5):
        log.append(float(n), "decision", "d0", {"n": n})
    assert len(calls) == 5
