"""Repo-invariant static analyzer (``repro ctl analyze``).

Four rule packs over the live source tree:

* ``determinism`` — no unordered set/dict iteration feeding
  serialization, fingerprinting, or compile ordering;
* ``lock-discipline`` — module/instance mutable state only under its
  ``with <lock>:`` region;
* ``numeric-boundary`` — exact Fraction kernels free of float
  contamination, float lanes free of per-lane Fraction construction;
* ``protocol-drift`` — the one service op table,
  ``protocol.OP_PARAMS``, in sync with its projections: the server
  dispatch table, the client methods, and the README op table.

See ``engine`` for suppressions (``# repro: allow[rule-id] reason``)
and the committed ``ANALYSIS_BASELINE.json``.
"""

from repro.analysis import (  # noqa: F401  (rule packs self-register)
    determinism, drift, locks, numeric,
)
from repro.analysis.engine import (
    BASELINE_NAME, Finding, Project, Report, Rule, SourceModule,
    all_rules, analyze, main, register, run,
)

__all__ = [
    "BASELINE_NAME", "Finding", "Project", "Report", "Rule",
    "SourceModule", "all_rules", "analyze", "main", "register", "run",
]
