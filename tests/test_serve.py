"""The allocation service: protocol, cache, server round-trips.

The server fixture runs the server on a background thread with the
shipped executor, a one-worker process pool (``jobs=1``), on a per-test
store.  Cache-key stability is checked *across interpreter processes
with different hash seeds*, because that is exactly what lets the cache
persist.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.serve import (AllocationCache, AllocationServer, LoadReport,
                         MAX_MODULE_BYTES, ProtocolError, ServeClient,
                         ServeError, artifact_cache_key, build_corpus,
                         decode_request, run_load)
from repro.serve.protocol import MAX_LINE_BYTES, encode, error_response
from repro.serve.server import _percentiles

MINIC = "func int main() { int a = 6; print a * 7; return a; }"

IR_REQUEST = {"op": "allocate", "minic": MINIC, "machine": "tiny:4x4",
              "allocator": "second-chance", "context": "",
              "spill_cleanup": False}


# ----------------------------------------------------------------------
# Protocol round-trips (no server needed).
# ----------------------------------------------------------------------
class TestProtocol:
    def test_valid_allocate_normalizes_defaults(self):
        doc = decode_request(encode({"op": "allocate", "minic": MINIC}))
        assert doc["op"] == "allocate"
        assert doc["machine"] == "alpha"
        assert doc["allocator"] == "second-chance"
        assert doc["spill_cleanup"] is False

    def test_machine_and_context_are_normalized(self):
        doc = decode_request(json.dumps({"minic": MINIC,
                                         "machine": "tiny:04x04",
                                         "context": "stress=shuffle,remat"}))
        assert doc["machine"] == "tiny:4x4"
        assert doc["context"] == "remat,stress=shuffle,seed=0"

    def test_op_defaults_to_allocate(self):
        doc = decode_request(json.dumps({"minic": MINIC}))
        assert doc["op"] == "allocate"

    @pytest.mark.parametrize("line,code", [
        (b"\xff\xfe not utf8 {", "bad-json"),
        (b"not json at all\n", "bad-json"),
        (b"[1, 2, 3]\n", "bad-json"),
        (json.dumps({"op": "frobnicate"}), "bad-request"),
        (json.dumps({"op": "allocate"}), "bad-request"),           # no module
        (json.dumps({"op": "allocate", "ir": "x", "minic": "y"}),
         "bad-request"),                                           # both
        (json.dumps({"op": "allocate", "minic": MINIC,
                     "machine": "vax"}), "bad-request"),
        (json.dumps({"op": "allocate", "minic": MINIC,
                     "machine": "tiny:33x4"}), "bad-request"),
        (json.dumps({"op": "allocate", "minic": MINIC,
                     "machine": "tiny:3000000x4"}), "bad-request"),
        (json.dumps({"op": "allocate", "minic": MINIC,
                     "allocator": "magic"}), "bad-request"),
        (json.dumps({"op": "allocate", "minic": MINIC,
                     "context": "stress=banana"}), "bad-request"),
        (json.dumps({"op": "allocate", "minic": MINIC,
                     "context": "seed=7"}), "bad-request"),
        (json.dumps({"op": "allocate", "minic": MINIC,
                     "context": "remat,stress=shuffle,stress=none"}),
         "bad-request"),
    ])
    def test_malformed_requests_carry_structured_codes(self, line, code):
        with pytest.raises(ProtocolError) as err:
            decode_request(line)
        assert err.value.code == code

    def test_oversized_module_is_bounded(self):
        big = "x" * (MAX_MODULE_BYTES + 1)
        with pytest.raises(ProtocolError) as err:
            decode_request(json.dumps({"op": "allocate", "ir": big}))
        assert err.value.code == "too-large"

    def test_error_response_shape(self):
        doc = error_response("r1", "bad-json", "nope")
        assert doc == {"id": "r1", "ok": False,
                       "error": {"code": "bad-json", "message": "nope"}}


# ----------------------------------------------------------------------
# Cache keys: stable across processes and hash seeds.
# ----------------------------------------------------------------------
_KEY_PROBE = """
import sys
sys.path.insert(0, {src!r})
from repro.serve import artifact_cache_key
request = {{"op": "allocate", "id": None, "ir": "", "minic": {minic!r},
            "machine": "tiny:4x4", "allocator": "second-chance",
            "context": "remat", "spill_cleanup": True}}
key, sha = artifact_cache_key(request)
print(key.ident())
print(sha)
"""


class TestCacheKey:
    def test_key_independent_of_hash_seed_and_process(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        script = _KEY_PROBE.format(src=src, minic=MINIC)
        outputs = set()
        for seed in ("0", "424242", "1337"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin"})
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_key_distinguishes_every_input(self):
        base = dict(IR_REQUEST)
        _, sha = artifact_cache_key(base)
        for twist in ({"minic": MINIC + " "},
                      {"allocator": "coloring"},
                      {"machine": "tiny:8x8"},
                      {"context": "remat"},
                      {"spill_cleanup": True}):
            _, other = artifact_cache_key(dict(base, **twist))
            assert other != sha, twist

    def test_machine_signature_is_semantic(self):
        # The signature hashes register-file sizes, not spec spelling,
        # so the key function must parse the spec, not echo it.
        _, a = artifact_cache_key(dict(IR_REQUEST, machine="tiny:4x4"))
        _, b = artifact_cache_key(dict(IR_REQUEST, machine="tiny:04x04"))
        assert a == b


# ----------------------------------------------------------------------
# Server round-trips.
# ----------------------------------------------------------------------
@pytest.fixture
def server(tmp_path):
    srv = AllocationServer(str(tmp_path / "store"), jobs=1)
    thread = threading.Thread(target=srv.run, daemon=True)
    thread.start()
    srv.wait_ready()
    yield srv
    srv.request_shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture
def client(server):
    with ServeClient("127.0.0.1", server.port) as c:
        yield c


class TestServer:
    def test_miss_then_hit_with_artifact_fields(self, client):
        first = client.request(dict(IR_REQUEST))
        assert first["cached"] is False
        assert "ld [" in first["code"] or "alloc" not in first  # spills ok
        assert first["allocator"] == "second-chance"
        assert first["result"] == 6
        assert first["dynamic_instructions"] > 0
        assert first["total_spill"] >= 0
        assert any(k.startswith("spill.") or "." in k
                   for k in first["spill_categories"])
        second = client.request(dict(IR_REQUEST))
        assert second["cached"] is True
        # The artifact payload is identical either way.
        for field in ("code", "result", "dynamic_instructions",
                      "spill_categories"):
            assert first[field] == second[field]

    def test_ir_and_minic_both_accepted(self, client):
        from repro.ir.printer import print_module
        from repro.lang import compile_minic
        from repro.target import tiny

        ir = print_module(compile_minic(MINIC, tiny(4, 4)))
        via_ir = client.allocate(ir=ir, machine="tiny:4x4")
        via_minic = client.allocate(minic=MINIC, machine="tiny:4x4")
        assert via_ir["result"] == via_minic["result"] == 6

    def test_malformed_request_keeps_connection_usable(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            reader = sock.makefile("rb")

            def send(line: bytes) -> dict:
                sock.sendall(line)
                return json.loads(reader.readline())

            bad = send(encode({"op": "allocate", "id": "r1"}))
            assert bad["ok"] is False
            assert bad["error"]["code"] == "bad-request"
            bad = send(b"this is not json\n")
            assert bad["ok"] is False
            assert bad["error"]["code"] == "bad-json"
            pong = send(encode({"op": "ping", "id": "r2"}))
            assert pong["ok"] is True and pong["id"] == "r2"  # same socket

    def test_non_string_machine_is_a_bad_request(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            reader = sock.makefile("rb")
            for machine in (5, None, ["alpha"]):
                sock.sendall(encode(dict(IR_REQUEST, machine=machine)))
                bad = json.loads(reader.readline())
                assert bad["ok"] is False
                assert bad["error"]["code"] == "bad-request"
            sock.sendall(encode({"op": "ping", "id": "p"}))
            assert json.loads(reader.readline())["ok"] is True

    def test_http_request_line_is_not_json(self, server):
        # The socket speaks JSONL only: an HTTP request line is bad JSON
        # like any other, and the server keeps answering.
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"GET / HTTP/1.1\r\n")
            bad = json.loads(reader.readline())
            assert bad["ok"] is False
            assert bad["error"]["code"] == "bad-json"
            sock.sendall(encode({"op": "ping", "id": "p"}))
            assert json.loads(reader.readline())["ok"] is True

    def test_parse_error_is_structured(self, client):
        with pytest.raises(ServeError) as err:
            client.allocate(ir="definitely not ir {{{")
        assert err.value.code == "parse-error"
        assert client.ping()["ok"] is True

    def test_pool_survives_a_parse_error(self, client):
        # The worker returns the failure as data: the same pool then
        # computes a fresh miss, and the earlier artifact is still cached.
        assert client.request(dict(IR_REQUEST))["cached"] is False
        with pytest.raises(ServeError) as err:
            client.allocate(ir="garbage {{{")
        assert err.value.code == "parse-error"
        other = dict(IR_REQUEST, minic=MINIC.replace("6", "5"))
        assert client.request(other)["result"] == 5
        assert client.request(dict(IR_REQUEST))["cached"] is True

    def test_zero_workers_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="at least one worker"):
            AllocationServer(str(tmp_path / "store"), jobs=0)

    def test_oversized_line_bounded_rejection(self, server):
        # A line over the stream limit cannot be framed: the server
        # answers too-large and closes; the *server* stays up.
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"{\"op\": \"allocate\", \"ir\": \""
                         + b"x" * (MAX_LINE_BYTES + 1024) + b"\"}\n")
            response = json.loads(reader.readline())
            assert response["error"]["code"] == "too-large"
            assert reader.readline() == b""         # connection closed
        with ServeClient("127.0.0.1", server.port) as fresh:
            assert fresh.ping()["ok"] is True

    def test_disconnect_mid_request_leaves_server_healthy(self, server):
        # Fire an allocate and vanish without reading the response.
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(encode(dict(IR_REQUEST)))
        with ServeClient("127.0.0.1", server.port) as c:
            done = c.request(dict(IR_REQUEST))
            assert done["ok"] is True

    def test_stats_and_metrics(self, client):
        client.request(dict(IR_REQUEST))
        client.request(dict(IR_REQUEST))
        stats = client.stats()
        assert stats["cache_cells"] == 1
        assert stats["metrics"]["serve.cache.misses"] == 1
        assert stats["metrics"]["serve.cache.hits"] == 1
        assert stats["latency"]["count"] == 2

    def test_latency_phases_count_concurrent_misses(self, server):
        # Two distinct misses in flight at once, each on its own
        # connection: compute and commit are each timed once per miss.
        other = dict(IR_REQUEST, minic=MINIC.replace("6", "5"))
        socks = [socket.create_connection(("127.0.0.1", server.port),
                                          timeout=30) for _ in range(2)]
        try:
            for sock, doc in zip(socks, (IR_REQUEST, other)):
                sock.sendall(encode(dict(doc)))
            answers = []
            for sock in socks:
                with sock.makefile("rb") as reader:
                    answers.append(json.loads(reader.readline()))
        finally:
            for sock in socks:
                sock.close()
        assert [a["cached"] for a in answers] == [False, False]
        with ServeClient("127.0.0.1", server.port) as c:
            before = c.stats()["metrics"]
            assert before["serve.latency.compute_s.calls"] == 2
            assert before["serve.latency.commit_s.calls"] == 2
            assert before["serve.latency.compute_s"] > 0
            assert before["serve.latency.commit_s"] > 0
            assert c.request(dict(IR_REQUEST))["cached"] is True
            after = c.stats()["metrics"]
        for name in ("compute_s", "compute_s.calls", "commit_s",
                     "commit_s.calls"):
            key = f"serve.latency.{name}"
            assert after[key] == before[key]

    def test_cache_persists_across_server_restart(self, tmp_path):
        store = str(tmp_path / "store")

        def one_request(expect_cached: bool) -> None:
            srv = AllocationServer(store, jobs=1)
            thread = threading.Thread(target=srv.run, daemon=True)
            thread.start()
            srv.wait_ready()
            try:
                with ServeClient("127.0.0.1", srv.port) as c:
                    response = c.request(dict(IR_REQUEST))
                    assert response["cached"] is expect_cached
            finally:
                srv.request_shutdown()
                thread.join(timeout=30)

        one_request(expect_cached=False)
        one_request(expect_cached=True)      # a different server process
        cache = AllocationCache(store)
        assert len(cache) == 1

    def test_shutdown_op_stops_server(self, tmp_path):
        srv = AllocationServer(str(tmp_path / "store"), jobs=1)
        thread = threading.Thread(target=srv.run, daemon=True)
        thread.start()
        srv.wait_ready()
        with ServeClient("127.0.0.1", srv.port) as c:
            assert c.shutdown()["ok"] is True
        thread.join(timeout=30)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# Load generation.
# ----------------------------------------------------------------------
class TestLoad:
    def test_corpus_is_deterministic_and_dup_controlled(self):
        a = build_corpus(20, dup_ratio=0.5, seed=3)
        b = build_corpus(20, dup_ratio=0.5, seed=3)
        assert a == b
        assert len(a) == 20
        assert len({doc["ir"] for doc in a}) == 10
        assert build_corpus(20, dup_ratio=0.5, seed=4) != a

    def test_load_pass_hits_track_duplicates(self, server):
        corpus = build_corpus(12, dup_ratio=0.5, seed=5)
        cold = run_load("127.0.0.1", server.port, corpus, label="cold")
        assert cold.requests == 12
        assert cold.misses == 6 and cold.hits == 6
        warm = run_load("127.0.0.1", server.port, corpus, label="warm")
        assert warm.hits == 12 and warm.misses == 0
        assert warm.hit_rate == 1.0
        assert "100.0% hit rate" in warm.render()

    def test_report_and_stats_share_the_percentile_rule(self):
        # An even count: both medians take the upper middle sample.
        samples = [0.4, 0.1, 0.3, 0.2]
        report = LoadReport()
        for seconds in samples:
            report.record(seconds, cached=False)
        assert report.median_s == _percentiles(samples)["median_s"] == 0.3
        assert report.p90_s == _percentiles(samples)["p90_s"] == 0.4
        assert LoadReport().median_s == 0.0 and _percentiles([]) == {}
