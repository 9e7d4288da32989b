"""Shared fixtures for the multi-replica serve-tier tests."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.baselines import build_model
from repro.datasets import DRKGConfig, build_features, generate_drkg_mm
from repro.pool import PoolConfig, PoolServer
from repro.serve import PredictionEngine


@pytest.fixture(scope="session")
def prepared():
    mkg = generate_drkg_mm(DRKGConfig().scaled(0.12))
    feats = build_features(mkg, np.random.default_rng(0), d_m=6, d_t=6, d_s=6,
                           gin_epochs=1, compgcn_epochs=1)
    return mkg, feats


@pytest.fixture(scope="session")
def transe(prepared):
    mkg, feats = prepared
    model, _ = build_model("TransE", mkg, feats, np.random.default_rng(1), dim=16)
    return model


@pytest.fixture()
def pool_factory(transe, prepared):
    """Start PoolServers on background threads; always stopped at teardown."""
    mkg, _ = prepared
    servers = []

    def make(**kwargs) -> PoolServer:
        config = PoolConfig(**kwargs)
        engine = PredictionEngine(transe, mkg.split, model_name="TransE")
        server = PoolServer(engine, config)
        servers.append(server)
        server.start_background()
        return server

    yield make
    for server in servers:
        server.request_shutdown(drain=False)
        server.join(timeout=15)


def http(server, method, path, body=None, headers=None, raw: bytes | None = None,
         timeout: float = 30.0):
    """One HTTP round-trip; returns (status, payload, headers)."""
    data = raw if raw is not None else (
        json.dumps(body).encode() if body is not None else None)
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            payload = response.read()
            ctype = response.headers.get_content_type()
            return (response.status,
                    json.loads(payload) if ctype == "application/json"
                    else payload.decode(), dict(response.headers))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)
