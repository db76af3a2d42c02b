"""Differential verification harness for the CQM pipeline.

PRs across this repo repeatedly claim bit-identical equivalence —
parallel backends, batched hot paths, micro-batched serving.  This
package is the systematic version of those claims:

* :mod:`.reference` — deliberately naive, loop-based oracle
  implementations of every numerical kernel;
* :mod:`.differential` — sweeps seeded and adversarial inputs through
  optimized vs. reference paths and reports max-ULP / abs / rel
  divergence per stage;
* :mod:`.golden` — content-hashed golden traces of the full pipeline
  with a drift diff that names the first diverging stage;
* :mod:`.fuzz` — a seeded fuzzer asserting degenerate datasets either
  succeed or raise a documented ``repro`` exception (never NaN output
  from a non-ε path, never a silent wrong ``q``).

``repro verify`` runs all three gates; CI runs it on every push.
"""

from .differential import (DifferentialReport, DifferentialRunner,
                           FAULT_STAGES, STAGE_NAMES, StageFault,
                           StageReport, ulp_distance)
from .fuzz import FuzzReport, run_fuzz
from .golden import (GoldenDiff, GoldenTrace, capture_trace,
                     check_against_golden, default_golden_path,
                     diff_traces, update_golden)

__all__ = [
    "DifferentialReport",
    "DifferentialRunner",
    "FAULT_STAGES",
    "STAGE_NAMES",
    "StageFault",
    "StageReport",
    "ulp_distance",
    "FuzzReport",
    "run_fuzz",
    "GoldenDiff",
    "GoldenTrace",
    "capture_trace",
    "check_against_golden",
    "default_golden_path",
    "diff_traces",
    "update_golden",
]
