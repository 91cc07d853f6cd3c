"""Run ``repro serve`` with span recorders around each layer's entry points.

    python perfbench/trace_serve.py SPANS.json serve INSTANCE --port 0 ...

Everything after the spans path is passed to ``repro.cli.main``.  Each
wrapped function is replaced on its module or class, and every caller
looks it up there at call time, so the program itself is unchanged.
A span is ``[id, name, start, end, parent_id, request_id, extra]``
(``perf_counter`` seconds); the parent is the innermost open span of
the same thread, and the request id comes from the ``QueryService.handle``
span that encloses it.  The spans are written to SPANS.json when the
server shuts down (SIGTERM).

Only per-request and per-operator functions are wrapped, never a
per-row one: a wrapper on ``jsonio.encode_row`` alone nearly doubled
the cache-hit read latency it was meant to explain.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import sys
from time import perf_counter

_parent = contextvars.ContextVar("span_parent", default=None)
_request = contextvars.ContextVar("span_request", default=None)
_ids = itertools.count()
SPANS: list[list] = []

#: (module, attribute path, span name) — the layer entry points
WRAPPED = (
    ("repro.server", "QueryService.handle", "server.handle"),
    ("repro.session", "Database.evaluate_many", "session.evaluate"),
    ("repro.session", "PreparedQuery.plan", "session.plan"),
    ("repro.session", "Database.apply_delta", "session.apply_delta"),
    ("repro.core.plan", "make_plan", "core.make_plan"),
    ("repro.core.engine", "execute_plan", "core.execute"),
    ("repro.core.certain", "certain_answers", "core.oracle"),
    ("repro.logic.columnar", "columnar_naive_eval", "logic.naive_eval"),
    ("repro.logic.kernels", "sort_merge_join", "logic.kernel"),
    ("repro.logic.kernels", "sort_merge_join_project", "logic.kernel"),
    ("repro.logic.kernels", "semi_join", "logic.kernel"),
    ("repro.data.indexes", "derive_context", "data.derive"),
    ("repro.data.dictionary", "derive_columnar", "data.derive"),
    ("repro.storage.store", "Storage.append_record", "storage.append"),
    ("repro.storage.store", "Storage.sync", "storage.sync"),
)


def _extra(name: str, args: tuple, kwargs: dict):
    """What a span records beside its timing: the op, or the oracle's worlds."""
    if name == "server.handle":
        request = args[1] if len(args) > 1 else None
        return request.get("op") if isinstance(request, dict) else None
    if name == "core.oracle":
        stats = kwargs.get("stats_out")
        return stats.get("worlds") if stats else None
    return None


def _recorder(fn, name: str):
    def span(*args, **kwargs):
        sid = next(_ids)
        parent = _parent.get()
        token = _parent.set(sid)
        request_token = None
        if name == "server.handle" and len(args) > 1 and isinstance(args[1], dict):
            request_token = _request.set(args[1].get("id"))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            SPANS.append(
                [sid, name, start, end, parent, _request.get(), _extra(name, args, kwargs)]
            )
            if request_token is not None:
                _request.reset(request_token)
            _parent.reset(token)

    span.__wrapped__ = fn
    return span


def install() -> None:
    for module_name, path, name in WRAPPED:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        setattr(owner, attr, _recorder(getattr(owner, attr), name))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: trace_serve.py SPANS.json serve ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    install()
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(out, "w") as fh:
            json.dump(SPANS, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
