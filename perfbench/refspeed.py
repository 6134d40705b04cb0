"""Host-speed normalization: pin the process, time a reference loop.

On the shared virtual machine the bounds were measured on, the vCPU's
speed is not constant: the same pure-Python loop takes 1.4-1.8 times as
long for stretches of milliseconds to seconds, then speeds up again.
Raw wall-clock figures of identical runs spread by 15-40%.  This module
removes most of that:

* ``pin_to_one_cpu`` pins the calling process to one vCPU.  Child
  processes (the ``repro serve`` server, the set-up probes) inherit the
  affinity, so every process of a run shares that vCPU and the
  reference loop tracks the speed the measured code actually ran at.
* ``Reference.seconds`` is the ``time.thread_time()`` of one run of a
  fixed loop.  Thread CPU time, unlike wall time, does not grow while
  another thread or process holds the CPU, so a busy program thread
  lengthens the op but not the reference.
* ``Normalizer`` runs the reference loop between consecutive ops and
  converts each op's wall time ``t`` to reference-speed time
  ``t * r_nom / r``, where ``r`` is the mean of the two reference
  readings either side of the op.  It keeps the raw value beside the
  normalized one.

This module must import nothing from ``repro``: the reference has to
stay fixed while the program under test changes.
"""

from __future__ import annotations

import os
import time

from dataclasses import dataclass
from fractions import Fraction


def pin_to_one_cpu() -> int:
    """Pin this process (and every child it starts later) to the
    highest-numbered vCPU it may run on; return that vCPU's number."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def small_fraction_loop(iterations: int = 120) -> int:
    """Small-``Fraction`` arithmetic: allocation, gcd and attribute
    access, like the exact paths of the service, the sweep kernels and
    the reduction.  The operands stay small, so every iteration costs
    the same."""
    total = 0
    for i in range(iterations):
        x = Fraction(i % 7 + 1, i % 11 + 2)
        y = Fraction(i % 5 + 1, i % 13 + 3)
        z = x * y + x / y - y
        total += z.numerator % 97
    return total


class Reference:
    """A fixed reference loop and its nominal thread time ``r_nom`` (in
    seconds): the loop's time on the fast speed state of the 2-vCPU
    Xeon (Sapphire Rapids, KVM) host the bounds were measured on.  A
    normalized time is what the op would have taken had the reference
    loop run in exactly ``r_nom``."""

    def __init__(self, name: str, loop, r_nom: float):
        self.name = name
        self.loop = loop
        self.r_nom = r_nom

    def seconds(self) -> float:
        """Thread CPU time of one run of the loop, in seconds."""
        start = time.thread_time()
        self.loop()
        return time.thread_time() - start


#: The one reference of every workload.  Each op's time is converted
#: with the readings of this loop taken right before and after it.
REFERENCE = Reference("small-fractions", small_fraction_loop, 0.00090)


def normalize(raw_s: float, ref_s: float, r_nom: float) -> float:
    """``raw_s`` measured while the reference loop took ``ref_s``,
    converted to reference-speed time."""
    if ref_s <= 0:
        raise ValueError(f"reference time must be positive, got {ref_s}")
    return raw_s * r_nom / ref_s


@dataclass(frozen=True)
class Sample:
    """One timed op: wall time, the reference time beside it, and the
    two converted to reference speed."""

    raw_s: float
    ref_s: float
    norm_s: float


class Normalizer:
    """Times ops with a reference loop run right next to each one.

    The reading taken after op i is also the reading before op i+1, so
    a run of n ops costs n+1 reference loops.  ``reference`` is a
    ``Reference`` (tests pass a synthetic one).
    """

    def __init__(self, reference: Reference, clock=time.perf_counter):
        self.reference = reference
        self._clock = clock
        self._before = None
        self.samples: list[Sample] = []

    def time(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one timed op; return its
        result and record a ``Sample``."""
        if self._before is None:
            self._before = self.reference.seconds()
        start = self._clock()
        result = fn(*args, **kwargs)
        raw = self._clock() - start
        after = self.reference.seconds()
        ref = (self._before + after) / 2
        self._before = after
        self.samples.append(
            Sample(raw, ref, normalize(raw, ref, self.reference.r_nom)))
        return result
