"""Unit tests for the hand-rolled HTTP layer (no sockets)."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.http import (
    HTTPError,
    Request,
    Response,
    Router,
    _read_request,
)


def parse(raw: bytes) -> Request:
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await _read_request(reader)

    return asyncio.run(run())


class TestParsing:
    def test_request_line_and_query(self):
        request = parse(b"GET /t/a%20b/c?x=1&y=-2.5&empty= HTTP/1.1\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/t/a b/c"
        assert request.query == {"x": "1", "y": "-2.5", "empty": ""}

    def test_headers_lowercased(self):
        request = parse(
            b"GET / HTTP/1.1\r\nIf-None-Match: \"abc\"\r\n"
            b"Connection: Close\r\n\r\n"
        )
        assert request.headers["if-none-match"] == '"abc"'
        assert request.if_none_match() == ['"abc"']

    def test_if_none_match_list(self):
        request = parse(
            b'GET / HTTP/1.1\r\nIf-None-Match: "a", "b"\r\n\r\n'
        )
        assert request.if_none_match() == ['"a"', '"b"']

    def test_body_by_content_length(self):
        request = parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        )
        assert request.body == b"abcd"

    def test_closed_connection_is_none(self):
        assert parse(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(HTTPError) as exc:
            parse(b"NONSENSE\r\n\r\n")
        assert exc.value.status == 400

    def test_bad_content_length(self):
        with pytest.raises(HTTPError):
            parse(b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")

    def test_negative_content_length(self):
        with pytest.raises(HTTPError) as exc:
            parse(b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
        assert exc.value.status == 400

    @pytest.mark.parametrize("value", [b"1_0", b"+3", b"-0"])
    def test_content_length_is_digits_only(self, value):
        # int() reads these as 10, 3 and 0 and would frame that body.
        with pytest.raises(HTTPError) as exc:
            parse(b"POST / HTTP/1.1\r\nContent-Length: " + value
                  + b"\r\n\r\n0123456789")
        assert exc.value.status == 400

    def test_content_length_past_the_digit_limit_is_too_large(self):
        with pytest.raises(HTTPError) as exc:
            parse(b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000
                  + b"\r\n\r\n")
        assert exc.value.status == 413

    def test_body_cut_short_by_eof_is_a_hang_up(self):
        assert parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc") is None


#: Past the 64 KiB line limit of ``asyncio.StreamReader``.
_LONG = "x" * 70_000
_EOL = st.sampled_from(["\r\n", "\n", ""])
_REQUEST_LINES = st.one_of(
    st.builds(
        "{} {} {}".format,
        st.sampled_from(["GET", "HEAD", "POST", "put", "", "G\x00T"]),
        st.one_of(
            st.sampled_from(["/", "/t/a%20b?x=1&y=", "/%zz%", "*", "?q", _LONG]),
            st.text(max_size=12).map("/".__add__),
        ),
        st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/", "http/1.1", "X"]),
    ),
    st.text(max_size=24),
)
_CONTENT_LENGTHS = st.one_of(
    st.sampled_from([
        "-5", "-1", "0", "3", "10", "1e3", "ten", "", " 4 ", "+3",
        "0x10", "99999999", str(1 << 20), str((1 << 20) + 1), "1_0", "-0",
        "007", "9" * 5000,
    ]),
    st.integers(-(1 << 40), 1 << 40).map(str),
)
_HEADERS = st.one_of(
    st.sampled_from(["Host: localhost", "Connection: close", 'If-None-Match: "a"']),
    st.sampled_from([
        "Transfer-Encoding: chunked", "transfer-encoding: gzip, CHUNKED",
        "no colon here", ": empty name", "X-Long: " + _LONG,
    ]),
    st.text(max_size=16),
)
_GRAMMAR_REQUESTS = st.builds(
    lambda line, eol, headers, length, body: (
        (
            line + eol + "".join(h + eol for h in headers)
            + ("" if length is None else f"Content-Length: {length}{eol}")
            + eol
        ).encode("latin-1", "replace")
        + body
    ),
    _REQUEST_LINES, _EOL, st.lists(_HEADERS, max_size=3),
    st.one_of(st.none(), _CONTENT_LENGTHS), st.binary(max_size=16),
)


def parse_within_deadline(raw: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await asyncio.wait_for(_read_request(reader), 1.0)

    return asyncio.run(run())


class TestReadRequestFuzz:
    """Any bytes a peer sends end as a ``Request``, ``None`` (the peer
    closed) or ``HTTPError`` 400/413 — never another exception and
    never a wait past the deadline."""

    @staticmethod
    def check(raw: bytes) -> None:
        try:
            result = parse_within_deadline(raw)
        except HTTPError as exc:
            assert exc.status in (400, 413), exc.status
        else:
            assert result is None or isinstance(result, Request)

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=256))
    def test_free_bytes(self, raw):
        self.check(raw)

    @settings(max_examples=200, deadline=None)
    @given(_GRAMMAR_REQUESTS)
    def test_grammar_shaped_requests(self, raw):
        self.check(raw)


class TestQueryHelpers:
    def request(self, **query):
        return Request("GET", "/", {k: str(v) for k, v in query.items()}, {})

    def test_int_parsing_and_bounds(self):
        assert self.request(n=5).query_int("n", default=1) == 5
        assert self.request().query_int("n", default=7) == 7
        with pytest.raises(HTTPError):
            self.request(n="x").query_int("n", default=1)
        with pytest.raises(HTTPError):
            self.request(n=99).query_int("n", default=1, hi=10)

    def test_float_and_required(self):
        assert self.request(x="2.5").query_float("x") == 2.5
        with pytest.raises(HTTPError):
            self.request().query_float("x")
        with pytest.raises(HTTPError):
            self.request(x="nope").query_float("x")


class TestResponse:
    def test_render_includes_length_and_type(self):
        raw = Response.json_({"a": 1}).render()
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: application/json" in raw
        assert raw.endswith(b'{"a": 1}')

    def test_head_only_omits_body(self):
        response = Response.text("hello")
        head = response.render(head_only=True)
        assert b"Content-Length: 5" in head
        assert not head.endswith(b"hello")

    def test_304_has_no_content_type(self):
        raw = Response(304, b"", headers=[("ETag", '"x"')]).render()
        assert b"304 Not Modified" in raw
        assert b"Content-Type" not in raw


class TestRouter:
    def handler(self, name):
        async def _h(request, **params):
            return name, params

        return _h

    def test_static_and_captures(self):
        router = Router()
        router.get("/datasets", self.handler("datasets"))
        router.get("/t/{ds}/{m}/{level}/{tx}/{ty}", self.handler("tile"))
        handler, params = router.match("GET", "/t/toy/kcore/0/1/2")
        assert params == {
            "ds": "toy", "m": "kcore", "level": "0", "tx": "1", "ty": "2",
        }
        handler, params = router.match("GET", "/datasets")
        assert params == {}

    def test_head_maps_to_get(self):
        router = Router()
        router.get("/x", self.handler("x"))
        handler, _ = router.match("HEAD", "/x")
        assert handler is not None

    def test_404_and_405(self):
        router = Router()
        router.get("/only", self.handler("only"))
        with pytest.raises(HTTPError) as exc:
            router.match("GET", "/missing")
        assert exc.value.status == 404
        with pytest.raises(HTTPError) as exc:
            router.match("PUT", "/only")
        assert exc.value.status == 405
