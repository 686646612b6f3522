"""Correctness of a workload pass: invariants on every operation, and the
values recorded at seed 0 (the fingerprint) where one exists.

An operation fails when it raised, when an invariant does not hold, or when
a value moved off the fingerprint; the last two are also wrong answers.  An
eigen entry whose eigenfunction the library declined to align as too coarse
is "unresolved": its eigenvalue is still checked, and at seed 0 the
fingerprint must record the same cell as unresolved.
"""

import json
import math
import statistics
from pathlib import Path

FINGERPRINT = Path(__file__).with_name("fingerprint.json")

# Table values kept in the fingerprint; the others are inputs to invariants.
FINGERPRINTED = ("h1_semi_u", "l2_u", "rel_lambda", "h1", "l2", "cond")
# |value - recorded| <= RTOL * |recorded| + FLOOR[quantity].  The floors sit
# above the rounding floor of the table values: solving the same eigen
# ladder with LAPACK's generalized driver instead of the Cholesky reduction
# through K moved rel_lambda by up to 6.4e-10 and the eigenfunction norms
# by up to 6e-12.
RTOL = 1e-6
FLOOR = {"rel_lambda": 1e-9, "cond": 0.0}
DEFAULT_FLOOR = 1e-10

# Invariant tolerances: discrete eigenvalues of a conforming method lie
# above the exact ones (to rounding); eigen residuals and M-orthogonality
# defects of a backward-stable dense solve stay near machine precision.
LAMBDA_TOL = 1e-10
RESIDUAL_MAX = 1e-8
M_ORTH_MAX = 1e-10
# An eigen entry may be unresolved only on a mesh this coarse for its
# eigenfunction: below 2 degrees of freedom (p N) per half-wave (idx half-
# waves on (0, 1)).  The paper's case2 FEM p=1 N=10 lambda_8 has 1.25.
COARSE_DOFS_PER_HALFWAVE = 2.0
# The median fitted SGFEM eigenvalue rate of each degree p stays within
# this distance below the optimal 2p.
RATE_SLACK = 1.0


def load_fingerprint(workload):
    if not FINGERPRINT.is_file():
        return {}
    return json.loads(FINGERPRINT.read_text()).get(workload, {})


def save_fingerprint(workload, ops):
    """Record one pass's table values (or error types) for a workload."""
    data = json.loads(FINGERPRINT.read_text()) if FINGERPRINT.is_file() else {}
    data[workload] = {
        op: ({q: (v if q == "unresolved" else float(v)) for q, v in r.items()
              if q in FINGERPRINTED + ("unresolved",)}
             if isinstance(r, dict) else {"error": r.kind})
        for op, r in sorted(ops.items())}
    FINGERPRINT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _invariant(vals):
    if not all(math.isfinite(v) for v in vals.values()):
        return "non-finite value"
    for h1, l2 in (("h1", "l2"), ("h1_semi_u", "l2_u")):
        # Poincare on H^1_0(0, 1): ||e|| <= ||e'|| / pi
        if h1 in vals and l2 in vals and vals[l2] > vals[h1] / math.pi * (1 + 1e-6) + 1e-12:
            return f"{l2} exceeds {h1} / pi"
    if "lambda" in vals and vals["lambda_h"] < vals["lambda"] * (1 - LAMBDA_TOL):
        return "discrete eigenvalue below the exact one"
    if vals.get("residual", 0.0) > RESIDUAL_MAX:
        return f"residual {vals['residual']:.2e} above {RESIDUAL_MAX}"
    if vals.get("m_orth", 0.0) > M_ORTH_MAX:
        return f"M-orthogonality defect {vals['m_orth']:.2e} above {M_ORTH_MAX}"
    if vals.get("cond", 2.0) <= 1.0:
        return "condition number not above 1"
    return None


def check_op(result, recorded):
    """(failed, wrong answer message or None) for one operation: a dict of
    values or a failure."""
    if not isinstance(result, dict):
        return True, None
    wrong = _invariant({q: v for q, v in result.items() if q != "unresolved"})
    if wrong is None and "unresolved" in result and (
            result["dofs_per_halfwave"] >= COARSE_DOFS_PER_HALFWAVE):
        wrong = (f"unresolved with {result['dofs_per_halfwave']:.2f} degrees of "
                 f"freedom per half-wave")
    if wrong is None and recorded and "error" not in recorded:
        if result.get("unresolved") != recorded.get("unresolved"):
            wrong = (f"unresolved {result.get('unresolved')!r}, the fingerprint "
                     f"has {recorded.get('unresolved')!r}")
        for q, ref in recorded.items():
            if wrong is not None or q == "unresolved":
                continue
            v = result.get(q)
            tol = RTOL * abs(ref) + FLOOR.get(q, DEFAULT_FLOOR)
            if v is None or not abs(v - ref) <= tol:
                wrong = f"{q} = {v!r} moved off the fingerprint {ref!r}"
    return wrong is not None, wrong


def check_rates(rates):
    """Messages for degrees whose median fitted SGFEM eigenvalue rate is
    not near the optimal 2p; rates maps a key to (p, rate)."""
    by_p = {}
    for p, rate in rates.values():
        by_p.setdefault(p, []).append(rate)
    msgs = []
    for p, rs in sorted(by_p.items()):
        med = statistics.median(rs)
        if med < 2 * p - RATE_SLACK:
            msgs.append(f"median SGFEM eigenvalue rate {med:.2f} for p={p}, "
                        f"expected near {2 * p}")
    return msgs
