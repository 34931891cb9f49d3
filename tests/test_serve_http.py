"""HTTP surface of the serving daemon.

Every test starts a real daemon on an ephemeral port inside one
``asyncio.run`` and talks to it over a socket with the stdlib client,
so the full stack — parser, routing, validation, cache, metrics — is
exercised exactly as production traffic would.
"""

from __future__ import annotations

import asyncio

import repro.cli as cli
from repro.serve.client import ServeClient
from repro.serve.service import (
    ServeConfig,
    parse_threshold_query,
    start_server,
)
from repro.systems.catalog import system_names

#: One small, fast sweep: the shape every test queries.
BODY = {
    "system": "dawn",
    "kernel": "gemm",
    "problem": "square",
    "precision": "single",
    "iterations": 8,
    "paradigm": "once",
    "backend": "analytic",
    "min_dim": 1,
    "max_dim": 64,
    "step": 16,
}


def serve(fn, cache_dir, **config_kwargs):
    """Run ``fn(client)`` against a fresh daemon, then drain it."""

    async def harness():
        config = ServeConfig(port=0, cache_dir=str(cache_dir), **config_kwargs)
        handle = await start_server(config)
        client = ServeClient(handle.host, handle.port)
        try:
            return await fn(client, handle)
        finally:
            await client.close()
            await handle.drain(5.0)

    return asyncio.run(harness())


def test_healthz_and_routing_errors(tmp_path):
    async def check(client, handle):
        r = await client.get("/healthz")
        assert r.status == 200 and r.json() == {"status": "ok"}
        r = await client.get("/no/such/endpoint")
        assert r.status == 404
        assert r.json()["error"]["family"] == "config"
        assert r.json()["error"]["exit_code"] == 2
        r = await client.request("DELETE", "/v1/threshold")
        assert r.status == 405
        r = await client.request(
            "POST", "/v1/threshold", headers=(("Content-Type", "text/x"),)
        )
        # empty body is not valid JSON
        assert r.status == 400

    serve(check, tmp_path / "cache")


def test_registry_introspection(tmp_path):
    async def check(client, handle):
        r = await client.get("/v1/systems")
        assert r.status == 200
        names = [s["name"] for s in r.json()["systems"]]
        assert names == list(system_names())
        r = await client.get("/v1/problems")
        assert r.status == 200
        problems = r.json()["problems"]
        assert "square" in problems["gemm"]
        assert "square" in problems["gemv"]

    serve(check, tmp_path / "cache")


def test_unknown_names_list_the_valid_registry(tmp_path):
    async def check(client, handle):
        r = await client.post("/v1/threshold", dict(BODY, system="summit"))
        assert r.status == 400
        error = r.json()["error"]
        assert error["family"] == "config" and error["exit_code"] == 2
        assert error["valid"] == list(system_names())
        r = await client.post("/v1/threshold", dict(BODY, problem="cube"))
        assert r.status == 400
        assert "square" in r.json()["error"]["valid"]
        r = await client.post("/v1/threshold", dict(BODY, precision="fp4"))
        assert "single" in r.json()["error"]["valid"]
        r = await client.post("/v1/threshold", dict(BODY, paradigm="warp"))
        assert "once" in r.json()["error"]["valid"]
        r = await client.post("/v1/threshold", dict(BODY, backend="host"))
        assert r.json()["error"]["valid"] == ["analytic", "des"]
        r = await client.post("/v1/threshold", dict(BODY, max_dim=0))
        assert r.status == 400
        r = await client.post(
            "/v1/threshold", dict(BODY, max_dim=1_000_000_000, step=1)
        )
        assert r.status == 400
        assert r.json()["error"]["family"] == "config"
        r = await client.post(
            "/v1/threshold",
            dict(BODY, backend="des", min_dim=1, max_dim=1,
                 iterations=1_000_000_000),
        )
        assert r.status == 400
        assert r.json()["error"]["family"] == "config"
        # the analytic model costs the same at any iteration count
        query = parse_threshold_query(dict(BODY, iterations=99_999))
        assert query.iterations == 99_999

    serve(check, tmp_path / "cache")


def test_threshold_roundtrip_hits_cache_on_repeat(tmp_path):
    async def check(client, handle):
        first = await client.post("/v1/threshold", BODY)
        assert first.status == 200
        p1 = first.json()
        assert p1["cache"]["hit"] is False
        assert p1["system"] == "dawn" and p1["paradigm"] == "once"
        assert p1["sweep"]["samples"] > 0
        assert p1["threshold"]["found"] in (True, False)
        assert p1["best_device"] in ("cpu", "gpu")

        second = await client.post("/v1/threshold", BODY)
        p2 = second.json()
        assert p2["cache"]["hit"] is True
        # identical decision payload, bit for bit, modulo the cache field
        def strip(p):
            return {k: v for k, v in p.items() if k != "cache"}

        assert strip(p1) == strip(p2)

        metrics = (await client.get("/metrics")).json()
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["misses"] == 1
        assert metrics["cache"]["hit_rate"] == 0.5
        assert metrics["jobs"]["sweeps_executed"] == 1
        assert metrics["store"]["entries"] == 1
        assert metrics["store"]["hits"] >= 1
        assert metrics["requests"]["threshold"] == 2
        assert metrics["latency"]["threshold"]["count"] == 2
        assert metrics["latency"]["threshold"]["p99_ms"] is not None
        assert metrics["queue"]["depth"] == 0

    serve(check, tmp_path / "cache")


def test_series_rows_are_byte_identical_to_cli_csv(tmp_path, capsys):
    cache = tmp_path / "cache"
    out = tmp_path / "out"
    code = cli.main([
        "-i", "8", "-d", "64", "--step", "16", "--system", "dawn",
        "--kernel", "gemm", "--precision", "single", "--quiet",
        "--cache-dir", str(cache), "-o", str(out),
    ])
    capsys.readouterr()
    assert code == 0

    async def check(client, handle):
        r = await client.post(
            "/v1/threshold", dict(BODY, include_series=True)
        )
        assert r.status == 200
        payload = r.json()
        # the CLI warmed the cache: the daemon must not re-execute
        assert payload["cache"]["hit"] is True
        series = payload["series"]
        lines = [",".join(series["fieldnames"])]
        lines += [
            ",".join(row[name] for name in series["fieldnames"])
            for row in series["rows"]
        ]
        rebuilt = ("\r\n".join(lines) + "\r\n").encode()
        assert rebuilt == (out / series["filename"]).read_bytes()

    serve(check, cache)


def test_gemv_and_paradigm_selection(tmp_path):
    async def check(client, handle):
        body = dict(BODY, kernel="gemv", paradigm="always")
        r = await client.post("/v1/threshold", body)
        assert r.status == 200
        payload = r.json()
        assert payload["kernel"] == "gemv"
        assert payload["paradigm"] == "always"
        if payload["threshold"]["found"]:
            assert payload["threshold"]["dims"]["k"] == 0

    serve(check, tmp_path / "cache")


def test_client_response_surfaces_degraded_answers():
    """Degraded (stale-while-revalidate) answers must be *surfaceable*
    without re-parsing: the Warning: 110 header, or the body's
    ``degraded: true`` for transports that drop headers, plus the
    ``stale_iterations`` annotation."""
    import json as _json

    from repro.serve.client import ClientResponse

    warned = ClientResponse(
        200,
        {"warning": '110 gpu-blob "stale threshold"'},
        b"{}",
    )
    assert warned.degraded is True and warned.warning.startswith("110")

    body_only = ClientResponse(
        200,
        {},
        _json.dumps(
            {"degraded": True, "cache": {"stale_iterations": 12}}
        ).encode(),
    )
    assert body_only.degraded is True
    assert body_only.stale_iterations == 12

    fresh = ClientResponse(
        200, {}, b'{"degraded": false, "cache": {"hit": true}}'
    )
    assert fresh.degraded is False
    assert fresh.stale_iterations is None
    assert fresh.warning is None

    unparseable = ClientResponse(503, {}, b"not json")
    assert unparseable.degraded is False
    assert unparseable.stale_iterations is None
