"""Pieces shared by the three workloads: the checkout, child-process
environment, op sequences, set-up timing, summaries and layer timing.

Nothing here imports ``repro`` at module level; the workloads do, after
``run.py`` has checked that the checkout holds ``src/repro``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from pathlib import Path

from refspeed import REFERENCE, Normalizer, normalize

#: ``PYTHONHASHSEED`` of the benchmark process and every process it
#: starts, so set and dict iteration order repeat from run to run.
HASH_SEED = "0"

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

BENCH_DIR = Path(__file__).resolve().parent


def src_dir() -> Path:
    """``src`` of the checkout the benchmark runs in (the working
    directory), which must hold the ``repro`` package."""
    return Path.cwd() / "src"


def child_env() -> dict:
    """Environment for the server and the set-up probes: the checkout's
    sources on the path, the fixed hash seed, and no on-disk circuit
    store (a run starts cold and writes nothing outside the checkout)."""
    env = dict(os.environ)
    env.pop("REPRO_CIRCUIT_STORE", None)
    env["PYTHONPATH"] = str(src_dir())
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def deck_sequence(deck: list, seed: int):
    """An endless op sequence: copies of ``deck``, each shuffled by a
    generator seeded with ``seed``.  Every run therefore sends the
    same mix of ops in proportion; the seed changes only their order."""
    rng = random.Random(seed)
    while True:
        hand = list(deck)
        rng.shuffle(hand)
        yield from hand


class Run:
    """The outcome of a timed phase: one ``Sample`` per op that
    returned, the ops attempted and failed, and the first errors."""

    def __init__(self):
        self.samples: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)


def run_timed(sequence, op, check, seconds: float, on_op=None) -> Run:
    """Time ``op(item)`` for items of ``sequence`` until ``seconds`` have
    passed, each normalized by the reference loop run beside it.

    ``check(item, output)`` compares the output with the expected one
    after the op's timing; a raised exception or a failed check counts
    the op as failed.  ``on_op(item, sample, output)`` runs after each
    op, outside its timing, with ``None`` for both when the op raised.
    """
    normalizer = Normalizer(REFERENCE)
    run = Run()
    run.samples = normalizer.samples
    deadline = time.perf_counter() + seconds
    for item in sequence:
        if time.perf_counter() >= deadline:
            break
        run.attempted += 1
        try:
            output = normalizer.time(op, item)
        except Exception as error:  # an op that errors is a failed op
            run.fail(f"{str(item)[:80]}: {type(error).__name__}: {error}")
            if on_op is not None:
                on_op(item, None, None)
            continue
        if on_op is not None:
            on_op(item, normalizer.samples[-1], output)
        try:
            correct = check(item, output)
        except (KeyError, TypeError, ValueError):  # a malformed output
            correct = False
        if not correct:
            run.fail(f"{str(item)[:80]}: output differs from the oracle")
    return run


def ms(seconds: float) -> float:
    return seconds * 1000.0


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summarize(samples: list) -> dict:
    """Throughput and latency percentiles of the timed ops, both
    reference-normalized and raw (just ``ops: 0`` when every op
    failed)."""
    if not samples:
        return {"ops": 0}
    norm = [s.norm_s for s in samples]
    raw = [s.raw_s for s in samples]
    refs = [s.ref_s for s in samples]
    return {
        "ops": len(samples),
        "throughput_ops": len(norm) / sum(norm),
        "latency_p50_ms": ms(statistics.median(norm)),
        "latency_p90_ms": ms(p90(norm)),
        "raw_throughput_ops": len(raw) / sum(raw),
        "raw_latency_p50_ms": ms(statistics.median(raw)),
        "raw_latency_p90_ms": ms(p90(raw)),
        "reference_ms_median": ms(statistics.median(refs)),
        "reference_ms_min": ms(min(refs)),
        "reference_ms_max": ms(max(refs)),
    }


def end_to_end(setup: dict, summary: dict, peak_rss_mb: float) -> dict:
    """The five end-to-end metrics of a timed run (0 where no op
    returned, which only happens when every op failed)."""
    return {
        "setup_s": metric(setup["setup_s"], "s"),
        "throughput_ops": metric(summary.get("throughput_ops", 0.0), "1/s"),
        "latency_p50_ms": metric(summary.get("latency_p50_ms", 0.0), "ms"),
        "latency_p90_ms": metric(summary.get("latency_p90_ms", 0.0), "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def own_peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is in KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(launch):
    """Run ``launch()`` ``SETUP_REPEATS`` times, each a set-up from a
    fresh process up to the point where the first timed op could start,
    with the reference loop read right before and after.  ``launch``
    returns a handle and a ``release`` callable, which is not timed.

    Returns ``(setup, handle, release)``: the median normalized and raw
    set-up times plus every sample, and the last launch's handle and
    release, which the caller must call (the others are released here).
    """
    norm, raw = [], []
    for i in range(SETUP_REPEATS):
        before = REFERENCE.seconds()
        start = time.perf_counter()
        handle, release = launch()
        elapsed = time.perf_counter() - start
        ref = (before + REFERENCE.seconds()) / 2
        raw.append(elapsed)
        norm.append(normalize(elapsed, ref, REFERENCE.r_nom))
        if i < SETUP_REPEATS - 1:
            release()
    setup = {"setup_s": statistics.median(norm),
             "raw_setup_s": statistics.median(raw),
             "setup_samples_s": norm, "raw_setup_samples_s": raw}
    return setup, handle, release


def probe_launch(workload: str):
    """A ``launch`` for ``timed_setups``: a fresh interpreter that
    imports the program and builds ``workload``'s working set
    (``probe.py``), timed up to its ``ready`` line; releasing it waits
    for the interpreter to exit."""
    command = [sys.executable, str(BENCH_DIR / "probe.py"), workload]

    def launch():
        child = subprocess.Popen(command, env=child_env(),
                                 stdout=subprocess.PIPE, text=True)

        def release():
            try:
                code = child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                code = child.wait()
            finally:
                child.stdout.close()
            return code

        if child.stdout.readline().strip() != "ready":
            child.kill()
            raise RuntimeError(f"set-up probe for {workload} failed "
                               f"(exit {release()})")
        return child, release

    return launch


def reference_factor(before: float, after: float) -> float:
    """``r_nom / r`` for a phase bracketed by two reference readings."""
    return REFERENCE.r_nom / ((before + after) / 2)


class LayerTimer:
    """Wraps library calls to time them as layers, from outside the
    program.

    ``wrap(owner, attr, layer)`` replaces ``owner.attr`` with a timing
    wrapper; ``layer`` is a name or a function of the call's arguments
    returning one.  Nested wrapped calls form a stack, and each layer is
    charged its self time: its calls' time minus the wrapped calls
    inside them.  A call is therefore never counted twice, a child's
    time never exceeds its parent's, and the layers' self times add up
    to the time of the outermost wrapped calls.  An attribute that does
    not exist (renamed or removed by a later change) is skipped and
    listed in ``missing``; its time then stays in the enclosing layer's
    self time.  ``restore`` undoes every wrap.
    """

    def __init__(self):
        self.own: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list = []
        self._undo: list = []

    def wrap(self, owner, attr: str, layer) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        timer = self
        name_of = layer if callable(layer) else (lambda *a, **k: layer)

        def timed(*args, **kwargs):
            frame = [name_of(*args, **kwargs), 0.0]
            timer._stack.append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                timer._stack.pop()
                name = frame[0]
                timer.own[name] = (timer.own.get(name, 0.0)
                                   + max(elapsed - frame[1], 0.0))
                timer.calls[name] = timer.calls.get(name, 0) + 1
                if timer._stack:
                    timer._stack[-1][1] += elapsed

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def covered(self) -> float:
        """Time inside the outermost wrapped calls since the reset."""
        return sum(self.own.values())

    def reset(self) -> None:
        self.own.clear()
        self.calls.clear()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(attempted: int, failed: int, metrics: dict, detail: dict) -> None:
    """Print the run's detail line, then its result line, which must be
    the last line of standard output."""
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
