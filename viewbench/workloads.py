"""The workloads: seeded inputs, set-up, the timed closed loop, the
correctness gate and the durable reopening.

One caller drives each workload in a closed loop: the next batch is
submitted only after the previous one returned (and, for ``serve``,
after its delta reached every subscription).  A *cycle* is one op batch
(the latency sample), an optional follow batch that undoes it so the
document keeps its size, and every ``read_every`` cycles one read.  In
a traced run, even cycles run with the layer wrappers installed and odd
cycles without, so traced and untraced latencies come from one window.
The host's speed is measured between cycles (``hostspeed.py``) and each
sample carries the factor that scales it to the reference speed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import queue
import random
import re
import resource
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import hostspeed
from layers import OP, load_spans
from spec import INPUT_POOL, SETUP_REPEATS, Workload

from repro.api import Database
from repro.server import ReproClient
from repro.server.client import ConnectionClosed, ServerError
from repro.updates.errors import UpdateError
from repro.workloads import xmark

DOC = "site.xml"
PUSH_TIMEOUT = 30.0
_BANNER = re.compile(r"repro view server on ([\d.]+):(\d+)")
_clock = time.perf_counter


class GateError(Exception):
    """The correctness gate found a mismatch."""


# -- inputs ------------------------------------------------------------------------------


@dataclass
class Cycle:
    op: list                 # statements of the op batch
    follow: list             # statements of the batch that undoes it


@dataclass
class Inputs:
    document: str
    cycles: list


def _person_path(k: int) -> str:
    return f"/site/people/person[{k}]"


def make_inputs(wl: Workload, seed: int, persons: int,
                pool: int = INPUT_POOL) -> Inputs:
    """Everything the program receives, generated from ``seed``.

    In-process statements are ``(action, path, argument)`` for the
    path-addressed builder; ``serve`` statements are XQuery-update
    strings.  Inserted persons land after seeded positions ``k``; the
    follow batch deletes them again at ``k + j + 1`` (the j-th insert,
    counted in document order), resolved against the same snapshot.
    """
    rng = random.Random(seed)
    document = xmark.generate_site(persons, seed=seed)
    cycles = []
    for c in range(pool):
        if wl.name == "regroup":
            picks = rng.sample(range(1, persons + 1), wl.statements)
            cycles.append(Cycle(
                [("replace", _person_path(k) + "/address/city",
                  rng.choice(xmark.CITIES)) for k in picks], []))
            continue
        ks = sorted(rng.sample(range(1, persons + 1), wl.statements))
        fragments = [xmark.new_person_xml(c * wl.statements + j,
                                          rng.choice(xmark.CITIES),
                                          18 + rng.randrange(60))
                     for j in range(len(ks))]
        if wl.name == "serve":
            binding = 'for $p in document("site.xml")/site/people/person'
            op = [f"{binding}[{k}] update $p insert {fragment} after $p"
                  for k, fragment in zip(ks, fragments)]
            follow = [f"{binding}[{k + j + 1}] update $p delete $p"
                      for j, k in enumerate(ks)]
        else:
            op = [("insert", _person_path(k), fragment)
                  for k, fragment in zip(ks, fragments)]
            follow = [("delete", _person_path(k + j + 1), None)
                      for j, k in enumerate(ks)]
        cycles.append(Cycle(op, follow))
    return Inputs(document, cycles)


# -- run record ---------------------------------------------------------------------------


@dataclass
class Sample:
    op: object               # span op id (batch counter or wire frame id)
    kind: str                # "op", "follow" or "read"
    latency: float           # submit -> return / ack
    completion: float        # submit -> return, ack and every push
    push_lag: Optional[float]
    traced: bool
    failed: bool
    statements: int
    scale: float = 1.0       # host-speed factor of the sample's cycle


@dataclass
class Run:
    served: bool = False
    samples: list = field(default_factory=list)
    setup_seconds: list = field(default_factory=list)     # scaled
    setup_wall_seconds: list = field(default_factory=list)
    restore_seconds: float = 0.0                           # scaled
    window_seconds: float = 0.0
    scaled_busy_seconds: float = 0.0    # cycle time, scaled
    statements_applied: int = 0
    batches_in_window: int = 0
    cycles: int = 0
    peak_rss_bytes: int = 0
    durable_bytes: int = 0
    durable_input_bytes: int = 1
    document_bytes: int = 0
    snapshot_before: dict = field(default_factory=dict)
    snapshot_after: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    server_spans: list = field(default_factory=list)
    setup_last_frame: int = 0
    served_xml: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def add(self, sample: Sample) -> None:
        self.samples.append(sample)
        self.attempted += 1
        if sample.failed:
            self.failed += 1
        elif sample.kind != "read":
            self.statements_applied += sample.statements
        if sample.kind != "read":
            self.batches_in_window += 1


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def _view_queries(wl: Workload):
    return [(name, getattr(xmark, query), policy)
            for name, query, policy in wl.views]


def _traced_phase(recorder, label):
    if recorder is not None:
        recorder.op = label
        recorder.install()


def _untraced(recorder):
    if recorder is not None:
        recorder.uninstall()


def repeats(rule: dict, spent: float, done: int) -> bool:
    """Whether to take another set-up sample."""
    return done < rule["min"] or (spent < rule["budget_s"]
                                  and done < rule["max"])


def processors() -> tuple:
    """``(client, engine)`` processors: the benchmark pins its own thread
    to the first and the process doing the engine work to the last, so
    the host-speed reference can be measured where the work runs."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


# -- reopening a durable directory ----------------------------------------------------------


def _run_child(*args: str) -> str:
    """Run ``run.py`` with internal arguments in a fresh interpreter.

    Set-ups and reopenings are timed in fresh processes: a warm process
    materializes faster (and the view cost models calibrate on that
    time), and unpickling a checkpoint spends most of its time in the
    cyclic garbage collector, whose cost depends on what the process
    already holds.  A restart is a fresh process anyway.
    """
    command = [sys.executable, os.path.join(os.path.dirname(__file__),
                                            "run.py"), *args]
    return subprocess.run(command, check=True, capture_output=True,
                          text=True, timeout=600).stdout


def digest(xml: dict) -> str:
    hasher = hashlib.sha256()
    for name in sorted(xml):
        hasher.update(name.encode() + b"\0" + xml[name].encode() + b"\0")
    return hasher.hexdigest()


def reopen(directory: str, names) -> dict:
    """Open a durable directory and read every view (the timed part),
    then compare each view with recomputation."""
    def open_and_read():
        db = Database(durable_path=directory)
        return db, {name: db.read(name) for name in names}

    (db, xml), wall, scaled = hostspeed.timed(open_and_read)
    return {"seconds": scaled, "wall_seconds": wall, "digest": digest(xml),
            "recomputed": all(xml[name] == db.registry.recompute_xml(name)
                              for name in names)}


def check_restore(run: Run, wl: Workload, directory: str, expected: dict,
                  recorder) -> None:
    """Correctness gate on reopening ``directory``: every view reads back
    as ``expected`` and equals recomputation.

    The gate and ``restore_s`` come from one reopening in a fresh
    process.  A traced run first reopens once in this process under the
    recorder, for the durability spans.
    """
    names = [name for name, _query, _policy in wl.views]
    results = []
    if recorder is not None:
        _traced_phase(recorder, "restore")
        results.append(reopen(directory, names))
        _untraced(recorder)
    results.append(json.loads(_run_child(
        "--workload", wl.name, "--seed", "0", "--seconds", "0",
        "--restore-only", directory).splitlines()[-1]))
    run.restore_seconds = results[-1]["seconds"]
    for result in results:
        _check(result["digest"] == digest(expected),
               "views read back differently after reopening the durable "
               "directory")
        _check(result["recomputed"],
               "reopened views differ from recomputation")


# -- the closed loop ------------------------------------------------------------------------


def drive(run: Run, wl: Workload, inputs: Inputs, seconds: float, batch,
          read, trace=None) -> None:
    """The closed loop of every workload, run for ``seconds``.

    ``batch(kind, statements, traced)`` returns whether it succeeded (a
    failed op skips its follow batch); ``trace`` is an ``(on, off)``
    pair of callables in a traced run, where even cycles are traced.
    """
    hostspeed.warm_up()
    before = hostspeed.measure()
    started = _clock()
    deadline = started + seconds
    cycle = 0
    while True:
        traced = trace is not None and cycle % 2 == 0
        if traced:
            trace[0]()
        first = len(run.samples)
        cycle_started = _clock()
        item = inputs.cycles[cycle % len(inputs.cycles)]
        if batch("op", item.op, traced) and item.follow:
            batch("follow", item.follow, traced)
        if cycle % wl.read_every == 0:
            read(traced)
        busy = _clock() - cycle_started
        if traced:
            trace[1]()
        after = hostspeed.measure()
        factor = hostspeed.scale(before, after)
        for sample in run.samples[first:]:
            sample.scale = factor
        run.scaled_busy_seconds += busy * factor
        before = after
        cycle += 1
        if _clock() >= deadline:
            break
    run.window_seconds = _clock() - started
    run.cycles = cycle


# -- in-process workloads (ingest, regroup) -------------------------------------------------


def _submit(db: Database, statements) -> None:
    with db.batch():
        for action, path, argument in statements:
            site = db.update(DOC).at(path)
            if action == "insert":
                site.insert(argument, position="after")
            elif action == "delete":
                site.delete()
            else:
                site.replace_with(argument)


def _setup_in_process(document: str, views) -> Database:
    db = Database()
    db.load(DOC, document)
    for name, query, policy in views:
        db.create_view(name, query, policy)
    return db


def time_setup_in_child(run: Run, wl: Workload, seed: int,
                        persons: int) -> None:
    """One set-up timed in a fresh interpreter (see ``_run_child``)."""
    timed = json.loads(_run_child(
        "--workload", wl.name, "--seed", str(seed), "--seconds", "0",
        "--setup-only", "--persons", str(persons)).splitlines()[-1])
    run.setup_wall_seconds.append(timed["wall_seconds"])
    run.setup_seconds.append(timed["seconds"])


def setup_only(wl: Workload, document: str) -> dict:
    db, wall, scaled = hostspeed.timed(
        lambda: _setup_in_process(document, _view_queries(wl)))
    db.close()
    return {"seconds": scaled, "wall_seconds": wall}


def run_in_process(wl: Workload, inputs: Inputs, seconds: float,
                   workdir: str, seed: int, persons: int,
                   recorder=None) -> Run:
    run = Run()
    run.document_bytes = len(inputs.document.encode())
    views = _view_queries(wl)
    # one processor for this process and the set-up children it starts
    os.sched_setaffinity(0, {processors()[1]})
    # setup_s comes from set-ups in fresh processes only: this process
    # is no longer fresh, and a set-up here ran up to a third faster.
    started_all = _clock()
    while repeats(SETUP_REPEATS, _clock() - started_all,
                  len(run.setup_seconds)):
        time_setup_in_child(run, wl, seed, persons)
    _traced_phase(recorder, "setup")
    db = _setup_in_process(inputs.document, views)
    _untraced(recorder)

    # Refresh notification only: mutation capture stays off, as it is
    # for a Database nobody subscribes to with deliver_mutations.
    pushed = []
    db.subscribe(wl.push_view, lambda event: pushed.append(_clock()))
    next_op = 0

    def batch(kind, statements, traced):
        nonlocal next_op
        op = next_op
        next_op += 1
        del pushed[:]
        root = recorder.begin("op.update", op) if traced else None
        started = _clock()
        failed = False
        try:
            _submit(db, statements)
        except UpdateError:
            failed = True
        latency = _clock() - started
        if root is not None:
            recorder.end(root)
        lag = pushed[0] - started if pushed else None
        if kind == "op" and lag is None:
            failed = True       # the subscription never saw the batch
        run.add(Sample(op, kind, latency, latency, lag, traced, failed,
                       len(statements)))
        return not failed

    def read(traced):
        nonlocal next_op
        op = next_op
        next_op += 1
        root = recorder.begin("op.read", op) if traced else None
        started = _clock()
        db.read(wl.read_view)
        latency = _clock() - started
        if root is not None:
            recorder.end(root)
        run.add(Sample(op, "read", latency, latency, None, traced, False, 0))

    run.snapshot_before = db.metrics()
    drive(run, wl, inputs, seconds, batch, read,
          None if recorder is None else (recorder.install,
                                         recorder.uninstall))
    run.peak_rss_bytes = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024
    run.snapshot_after = db.metrics()

    # Correctness gate: every view equals recomputation, and the
    # insert/delete pairs left the document exactly as it was loaded.
    final = {}
    for name, _query, _policy in views:
        final[name] = db.read(name)
        _check(final[name] == db.registry.recompute_xml(name),
               f"view {name!r} differs from recomputation")
    document = db.storage.document(DOC).to_string()
    if wl.name == "ingest" and run.failed == 0:
        _check(document == inputs.document,
               "insert/delete pairs did not restore the document")
    db.close()
    del db
    gc.collect()

    # Durable reopening of the final state: a fresh durable directory
    # holding the final document and the views, cut by close().
    directory = os.path.join(workdir, "durable")
    _traced_phase(recorder, "snapshot")
    snapshot = Database(durable_path=directory)
    snapshot.load(DOC, document)
    for name, query, policy in views:
        snapshot.create_view(name, query, policy)
    snapshot.close()
    _untraced(recorder)
    del snapshot
    run.durable_bytes = _dir_bytes(directory)
    run.durable_input_bytes = len(document.encode())
    check_restore(run, wl, directory, final, recorder)
    return run


# -- serve --------------------------------------------------------------------------------


class ServerChild:
    """``python -m repro.server`` (or the tracing launcher) as a child."""

    def __init__(self, root: str, directory: str, spans_path, cpu: int):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        if spans_path is None:
            command = [sys.executable, "-m", "repro.server"]
        else:
            command = [sys.executable,
                       os.path.join(os.path.dirname(__file__),
                                    "server_child.py"), spans_path]
        command += ["--port", "0", "--durable", directory, "--fsync", "batch"]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True, env=env, cwd=root)
        # before the server starts any thread (threads inherit it)
        os.sched_setaffinity(self.process.pid, {cpu})
        ready, _w, _x = select.select([self.process.stdout], [], [], 60)
        banner = self.process.stdout.readline() if ready else ""
        match = _BANNER.search(banner)
        if match is None:
            self.kill()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    @property
    def pid(self) -> int:
        return self.process.pid

    def peak_rss_bytes(self) -> int:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
        raise RuntimeError("no VmHWM in /proc status")

    def signal(self, signum) -> None:
        self.process.send_signal(signum)

    def stop(self) -> int:
        """SIGTERM (graceful: final checkpoint) and wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=120)
        finally:
            self.kill()
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
        if self.process.stdout is not None:
            self.process.stdout.close()


def _serve_setup(wl, inputs, views, root, directory, spans_path, cpu):
    server = ServerChild(root, directory, spans_path, cpu)
    try:
        client = ReproClient(server.host, server.port, timeout=PUSH_TIMEOUT)
        client.load(DOC, inputs.document)
        for name, query, policy in views:
            client.create_view(name, query, policy)
        subscriptions = [client.subscribe(wl.push_view)
                         for _ in range(wl.subscriptions)]
    except BaseException:
        server.kill()
        raise
    return server, client, subscriptions


def run_serve(wl: Workload, inputs: Inputs, seconds: float, root: str,
              workdir: str, recorder=None) -> Run:
    run = Run(served=True)
    run.document_bytes = len(inputs.document.encode())
    client_cpu, server_cpu = processors()
    os.sched_setaffinity(0, {client_cpu})
    hostspeed.measure_on((client_cpu, server_cpu))
    views = _view_queries(wl)
    spans_path = (os.path.join(workdir, "server-spans.jsonl")
                  if recorder is not None else None)
    server = client = None
    started_all = _clock()
    while repeats(SETUP_REPEATS, _clock() - started_all,
                  len(run.setup_seconds)):
        if server is not None:
            client.close()
            server.stop()
        directory = os.path.join(workdir,
                                 f"durable-{len(run.setup_seconds)}")
        (server, client, subscriptions), wall, scaled = hostspeed.timed(
            lambda: _serve_setup(wl, inputs, views, root, directory,
                                 spans_path, server_cpu))
        run.setup_wall_seconds.append(wall)
        run.setup_seconds.append(scaled)
    try:
        _serve_window(run, wl, inputs, seconds, server, client,
                      subscriptions, recorder)
    except BaseException:
        client.close()
        server.kill()
        raise
    if recorder is not None:
        server.signal(signal.SIGUSR1)   # trace the shutdown checkpoint
        client.ping()
    client.close()
    code = server.stop()
    _check(code == 0, f"server exited with {code} on SIGTERM")
    if recorder is not None:
        for span in load_spans(spans_path):
            if isinstance(span[OP], int) and span[OP] <= run.setup_last_frame:
                span[OP] = "setup"
            run.server_spans.append(span)
    run.durable_bytes = _dir_bytes(directory)
    run.durable_input_bytes = run.document_bytes
    check_restore(run, wl, directory, run.served_xml, recorder)
    return run


def _serve_window(run, wl, inputs, seconds, server, client, subscriptions,
                  recorder) -> None:
    run.setup_last_frame = client._next_id
    last_sequence = {s.id: s.last_sequence for s in subscriptions}
    gaps = []

    def take(subscription):
        """Next push of ``subscription``; records any break in its
        contiguous delta sequence (a gap frame or a skipped number)."""
        frame = subscription.get(timeout=PUSH_TIMEOUT)
        first = frame.get("from_sequence", frame.get("sequence"))
        if frame.get("type") != "delta" \
                or first != last_sequence[subscription.id] + 1:
            gaps.append(frame)
        last_sequence[subscription.id] = frame.get("sequence")

    def await_pushes(started):
        for subscription in subscriptions:
            take(subscription)
        return _clock() - started

    def batch(kind, statements, traced):
        started = _clock()
        latency = completion = lag = None
        failed = False
        try:
            client.update(statements)
            latency = _clock() - started
            completion = lag = await_pushes(started)
        except (ServerError, ConnectionClosed, TimeoutError, queue.Empty):
            failed = True
        op = client._next_id
        run.add(Sample(op, kind, latency or 0.0, completion or 0.0, lag,
                       traced, failed, len(statements)))
        return not failed

    def read(traced):
        started = _clock()
        failed = False
        try:
            client.read(wl.read_view)
        except (ServerError, ConnectionClosed, TimeoutError):
            failed = True
        latency = _clock() - started
        run.add(Sample(client._next_id, "read", latency, latency, None,
                       traced, failed, 0))

    def tracing(signum):
        server.signal(signum)
        client.ping()           # the handler has run once this returns

    run.snapshot_before = client.metrics()
    drive(run, wl, inputs, seconds, batch, read,
          None if recorder is None else (lambda: tracing(signal.SIGUSR1),
                                         lambda: tracing(signal.SIGUSR2)))
    run.snapshot_after = client.metrics()
    run.peak_rss_bytes = server.peak_rss_bytes()

    # Served state, gap-free pushes (the restore check compares the
    # reopened directory with this served XML).
    run.served_xml = {}
    for name, _query, _policy in _view_queries(wl):
        reply = client.read(name)
        run.served_xml[name] = reply["xml"]
        if name == wl.push_view:
            final_sequence = reply["sequence"]
    for subscription in subscriptions:
        while last_sequence[subscription.id] < final_sequence:
            take(subscription)
    _check(not gaps, f"{len(gaps)} push frame(s) broke a subscription's "
                     f"contiguous delta sequence")
