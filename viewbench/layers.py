"""Span recording around calls into each repro module's public functions.

A :class:`Recorder` wraps functions and methods from the benchmark's own
code — the program is not edited.  Class methods are wrapped on the
class.  Module functions are wrapped at every importing module's bound
name, because ``from x import f`` copies the binding: patching the
defining module alone misses callers that imported ``f`` by name.

Each span is ``[name, start, end, parent, op, attrs]``: ``parent`` is
the index of the enclosing span (-1 at top level) and ``op`` the
identifier of the benchmark operation that was current when the span
opened.  Spans stay in memory until :meth:`Recorder.dump` writes them
as JSON lines.  Only calls on the thread that created the recorder are
recorded; other threads pass straight through.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

_clock = time.perf_counter

# span fields
NAME, START, END, PARENT, OP, ATTRS = range(6)


class Recorder:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._thread = threading.get_ident()
        self._patches: list = []
        self.installed = False

    # -- wrapping ----------------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_exit=None,
              before=None) -> None:
        """Register a wrapper for ``owner.attr`` (installed later).

        ``before(args)`` runs before the call and returns a token;
        ``on_exit(args, result, token)`` returns the span's attribute
        dict.  An attribute ``frame_id`` also becomes the current op.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name, on_exit,
                                           before))
        else:
            wrapped = self._wrap(raw, name, on_exit, before)
        self._patches.append((owner, attr, raw, wrapped))

    def _wrap(self, fn, name, on_exit, before):
        spans = self.spans
        stack = self._stack
        thread = self._thread
        get_ident = threading.get_ident
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != thread:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    recorder.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = _clock()
                stack.pop()
            if on_exit is not None:
                attrs = on_exit(args, result, token)
                if attrs:
                    span[ATTRS] = attrs
                    if "frame_id" in attrs:
                        recorder.op = span[OP] = attrs["frame_id"]
            return result

        return wrapper

    def install(self) -> None:
        if not self.installed:
            for owner, attr, _raw, wrapped in self._patches:
                setattr(owner, attr, wrapped)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attr, raw, _wrapped in self._patches:
                setattr(owner, attr, raw)
            self.installed = False

    # -- benchmark-level spans ---------------------------------------------------------

    def begin(self, name: str, op) -> int:
        """Open a span from benchmark code (the root of one op)."""
        self.op = op
        span = [name, _clock(), 0.0, self._stack[-1] if self._stack else -1,
                op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][END] = _clock()
        self._stack.pop()

    # -- output ------------------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i]
            for i, span in enumerate(spans)]


# -- the layer boundaries ------------------------------------------------------------


def _len_arg(position):
    return lambda args, result, token: {"bytes": len(args[position])}


def _nodes_of_fragment(args, result, token):
    return {"nodes": args[2].subtree_size() if len(args) > 2 else 1}


def _nodes_of_result(args, result, token):
    return {"nodes": result.subtree_size()}


def _one_node(args, result, token):
    return {"nodes": 1}


def _report_fields(args, result, token):
    return {"validate_s": result.validate_seconds, "routed": result.routed,
            "classifications": result.classifications}


def _wal_bytes_before(args):
    return args[0].stats.bytes_appended


def _wal_bytes(args, result, token):
    return {"bytes": args[0].stats.bytes_appended - token}


def _result_len(args, result, token):
    return {"bytes": len(result)}


def _decoded_frame(args, result, token):
    ids = [frame["id"] for frame in result
           if isinstance(frame, dict) and isinstance(frame.get("id"), int)]
    return {"frame_id": ids[-1]} if ids else None


def install_layer_wrappers(recorder: Recorder) -> None:
    """Register the wrapper for every layer boundary the benchmark times
    (call :meth:`Recorder.install` to activate them)."""
    # import_module, not ``from package import module``: a package may
    # re-export a function under its submodule's name (repro.apply
    # exports the function ``deep_union``, shadowing the module).
    def module(name):
        return importlib.import_module("repro" + name)

    repro, xmlmodel, parser, document = (
        module(""), module(".xmlmodel"), module(".xmlmodel.parser"),
        module(".xmlmodel.document"))
    builder, database, primitives = (
        module(".api.builder"), module(".api.database"),
        module(".updates.primitives"))
    translate, flwor, view = (module(".translate"),
                              module(".translate.flwor"), module(".view"))
    apply_pkg, deep_union, executor = (
        module(".apply"), module(".apply.deep_union"),
        module(".engine.executor"))
    pipeline, registry, router = (
        module(".multiview.pipeline"), module(".multiview.registry"),
        module(".multiview.router"))
    storage_manager, index = (module(".storage.manager"),
                              module(".storage.index"))
    checkpoint, files, manager, wal = (
        module(".durability.checkpoint"), module(".durability.files"),
        module(".durability.manager"), module(".durability.wal"))
    protocol, server = module(".server.protocol"), module(".server.server")

    patch = recorder.patch
    for owner in (repro, xmlmodel, parser, builder, primitives, manager):
        patch(owner, "parse_fragment", "xmlmodel.fragment_parse",
              _len_arg(0))
    patch(document.XmlDocument, "from_string", "xmlmodel.document_parse",
          _len_arg(2))
    patch(executor.Engine, "serialize_extent", "xmlmodel.serialize",
          _result_len)
    for owner in (repro, translate, flwor, registry, database, view):
        patch(owner, "translate_query", "translate.compile")
    patch(database, "parse_update", "xquery.parse_update")
    patch(database, "evaluate_update", "xquery.evaluate_update")
    patch(builder.Update, "resolve", "api.resolve")

    store = storage_manager.StorageManager
    patch(store, "insert_fragment", "storage.insert", _nodes_of_fragment)
    patch(store, "delete_subtree", "storage.delete", _nodes_of_result)
    patch(store, "replace_text", "storage.modify", _one_node)
    patch(index.StructuralIndex, "add_node", "storage.index")
    patch(index.StructuralIndex, "remove_node", "storage.index")

    patch(router.SharedValidationRouter, "route", "multiview.route")
    patch(registry.ViewRegistry, "apply_updates", "multiview.apply_updates",
          _report_fields)
    patch(executor.Engine, "propagate", "engine.propagate")
    patch(pipeline.ViewPipeline, "recompute", "engine.recompute")
    for owner in (executor, deep_union, apply_pkg):
        patch(owner, "fuse_forest", "apply.fuse")

    patch(wal.WriteAheadLog, "append", "durability.wal_append", _wal_bytes,
          _wal_bytes_before)
    patch(files.RealFileSystem, "fsync", "durability.fsync")
    patch(manager.DurabilityManager, "checkpoint", "durability.checkpoint")
    patch(manager.DurabilityManager, "recover", "durability.recover")
    patch(checkpoint.CheckpointStore, "load_latest", "durability.restore_read")
    patch(manager, "restore_state", "durability.restore_state")

    patch(server, "encode_frame", "server.encode", _result_len)
    patch(protocol.FrameDecoder, "feed", "server.decode", _decoded_frame)
