"""Shared fixtures for the terrain server tests: a small two-mountain
graph, an app over it, and a live server on an ephemeral port."""

import pytest

from repro.engine.pipeline import EdgeListSource
from repro.graph.io import write_edge_list
from repro.serve import ServeApp, ServerThread, StreamSession
from repro.stream import AddEdge, SetScalar, write_edit_log

from serve_client import Client, toy_graph


@pytest.fixture(scope="module")
def edge_list_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "toy.txt"
    write_edge_list(toy_graph(), path)
    return str(path)


@pytest.fixture(scope="module")
def edit_log_file(tmp_path_factory, edge_list_file):
    return str(write_edit_log(
        tmp_path_factory.mktemp("serve-log") / "edits.jsonl",
        [
            [SetScalar(8, 4.0)],
            [AddEdge(0, 8)],
        ],
        times=[1.0, 2.0],
    ))


@pytest.fixture(scope="module")
def app(edge_list_file, edit_log_file):
    app = ServeApp(tile_size=16, levels=3)
    app.add_dataset("toy", ["kcore", "degree"], edge_list=edge_list_file)
    app.add_stream_session(StreamSession(
        "replay",
        EdgeListSource(edge_list_file),
        "kcore",
        edit_log_file,
        tile_size=16,
        levels=2,
    ))
    return app


@pytest.fixture(scope="module")
def server(app):
    with ServerThread(app) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return Client(server.port)
