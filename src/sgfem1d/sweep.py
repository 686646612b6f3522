"""Refinement-ladder experiment driver and report serialization."""

import configparser
import re
import sys
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .analytic import exact_eigenfunction, manufactured_source, solve_matching_system
from .assembly import InterfaceProblem, assemble
from .basis import DofVector, build_space
from .densela import generalized_eigs, scaled_condition_number, solve_spd
from .errors import (ErrorRecord, align_eigenfunction, fit_rate, h1_semi_error,
                     l2_error, relative_eigenvalue_error)
from .exceptions import (DegenerateAlignmentError, EigenvalueMismatchError,
                         InsufficientDataError, InvalidArgumentError)
from .mesh import build_uniform_mesh

# named coefficient configurations used throughout the experiments
CASES = {
    "case2": {"gamma": 1.0 / 3.0, "eta": 4.0},
    "case3": {"gamma": 1.0 / np.pi, "eta": float(np.e) ** 2},
}


@dataclass
class SweepConfig:
    problem: str = "source"
    gamma: float = 1.0 / 3.0
    eta: float = 4.0
    case: str = "manufactured"
    degrees: tuple = (1, 2, 3)
    Ns: tuple = (10, 20, 40, 80, 160)
    methods: tuple = ("FEM", "SGFEM")
    eigen_indices: tuple = (1, 4, 8)
    outputs: tuple = ()

    def validate(self):
        if self.problem not in ("source", "eigen"):
            raise InvalidArgumentError(f"unknown problem {self.problem!r}")
        if any(a >= b for a, b in zip(self.Ns, self.Ns[1:])):
            raise InvalidArgumentError("Ns must be strictly ascending")
        for name in ("degrees", "methods", "eigen_indices"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise InvalidArgumentError(f"{name} repeat an entry")
        if set(self.outputs) - {"eigenfunctions"}:
            raise InvalidArgumentError(f"unknown outputs {self.outputs!r}")
        if any(p < 1 or p > 6 for p in self.degrees):
            raise InvalidArgumentError("degrees must lie in 1..6")
        if any(i < 1 for i in self.eigen_indices):
            raise InvalidArgumentError("eigen indices are 1-based")
        if self.case not in (*CASES, "custom", "manufactured"):
            raise InvalidArgumentError(f"unknown case {self.case!r}")
        if unknown := sorted(set(self.methods) - {"FEM", "SGFEM"}):
            raise InvalidArgumentError(f"unknown method {unknown[0]!r}")


@dataclass
class Report:
    rows: list
    rates: dict
    metadata: dict
    warnings: list = field(default_factory=list)


def _fit_rates(rows):
    groups = {}
    for r in rows:
        groups.setdefault((r.p, r.method, r.quantity), []).append(r)
    rates = {}
    for key, recs in groups.items():
        try:
            rates[key] = fit_rate(recs)
        except InsufficientDataError:
            continue
    return rates


def _sweep(cfg, gamma, cell, meta=None):
    """Run cell(space, method, warn) -> [ErrorRecord] at every (p, N, method)
    of the grid and fit the rates; warn(text) adds a warning naming the cell,
    and meta is added to the report's metadata.  An exception from a cell is
    re-raised as it is, with the cell attached as a note."""
    rows, warnings, fitting_cells = [], [], []
    t0 = time.time()
    for p in cfg.degrees:
        for N in cfg.Ns:
            label = f"(p={p}, N={N})"
            try:  # one mesh per (p, N): its methods share the mesh's panel layout
                mesh = build_uniform_mesh(N, gamma)
                for method in cfg.methods:
                    label = f"(p={p}, N={N}, {method})"
                    space = build_space(mesh, p, enrich=(method == "SGFEM"))
                    if method == "SGFEM" and mesh.fitting:
                        fitting_cells.append((p, N))
                    rows.extend(cell(space, method,
                                     lambda text: warnings.append(f"{label} {text}")))
            except Exception as exc:
                # what add_note does, also on Python 3.10
                exc.__notes__ = [*getattr(exc, "__notes__", ()), label]
                raise
    rates = _fit_rates(rows)
    if not rates:
        warnings.append("fewer than 3 refinement levels; no rates fitted")
    meta = {"config": cfg, "wall_time": time.time() - t0,
            "fitting_cells": fitting_cells, **(meta or {})}
    return Report(rows=rows, rates=rates, metadata=meta, warnings=warnings)


def run_source_sweep(cfg):
    """Solve the manufactured source problem over the (p, N, method) grid and
    record H1-seminorm and L2 errors."""
    cfg.validate()
    if cfg.problem != "source":
        raise InvalidArgumentError("config is not a source sweep")
    u, f = manufactured_source()
    prob = InterfaceProblem(gamma=1.0 / 3.0, kappa0=1.0, kappa1=4.0, source=f)

    def cell(space, method, warn):
        system = assemble(space, prob)
        U = solve_spd(system.K, system.F)
        dofs = DofVector(U[:space.n_fem], U[space.n_fem:])
        rec = partial(ErrorRecord, space.mesh.N, space.p, method)
        return [rec("h1_semi_u", h1_semi_error(dofs, space, u)),
                rec("l2_u", l2_error(dofs, space, u))]

    return _sweep(cfg, prob.gamma, cell, {"gamma": prob.gamma, "eta": prob.kappa1})


def _check_gaps(pairs, indices):
    lam = [p.lam for p in pairs]
    for idx in indices:
        for j in (idx - 2, idx):  # the neighbours of lam[idx - 1]
            if 0 <= j < len(lam) and abs(lam[idx - 1] - lam[j]) <= 0.01 * lam[idx - 1]:
                raise EigenvalueMismatchError(
                    f"exact eigenvalues {idx} and {j + 1} closer than 1%")


def run_eigen_sweep(cfg):
    """Solve the interface eigenvalue problem over the grid and record
    relative eigenvalue errors (and eigenfunction errors when requested via
    outputs containing 'eigenfunctions').  An eigenfunction too coarse to
    align with the exact one is recorded as unresolved: a warning and no
    error rows; its eigenvalue row stays."""
    cfg.validate()
    if cfg.problem != "eigen":
        raise InvalidArgumentError("config is not an eigen sweep")
    case = CASES.get(cfg.case, {"gamma": cfg.gamma, "eta": cfg.eta})
    gamma, eta = case["gamma"], case["eta"]
    kmax = max(cfg.eigen_indices)
    pairs = solve_matching_system(gamma, eta, kmax + 1)
    _check_gaps(pairs, cfg.eigen_indices)
    want_fns = "eigenfunctions" in cfg.outputs
    exact_fns = {i: exact_eigenfunction(pairs[i - 1]) for i in cfg.eigen_indices} \
        if want_fns else {}
    prob = InterfaceProblem(gamma=gamma, kappa0=1.0, kappa1=eta)

    def cell(space, method, warn):
        system = assemble(space, prob)
        sol = generalized_eigs(system.K, system.M, kmax)
        rec = partial(ErrorRecord, space.mesh.N, space.p, method)
        rows = []
        for idx in cfg.eigen_indices:
            rows.append(rec(f"rel_lambda_{idx}", relative_eigenvalue_error(
                sol.values[idx - 1], pairs[idx - 1].lam)))
            if not want_fns:
                continue
            exact, v = exact_fns[idx], sol.vectors[:, idx - 1]
            try:
                dofs = align_eigenfunction(
                    DofVector(v[:space.n_fem], v[space.n_fem:]), space, exact)
            except DegenerateAlignmentError as exc:
                warn(f"eigenfunction {idx} unresolved: {exc}")
                continue
            rows += [rec(f"h1_u{idx}", h1_semi_error(dofs, space, exact)),
                     rec(f"l2_u{idx}", l2_error(dofs, space, exact))]
        return rows

    return _sweep(cfg, gamma, cell, {"gamma": gamma, "eta": eta})


def run_cond_sweep(p, Ns, gamma=1.0 / 3.0, eta=4.0, method="SGFEM"):
    """Scaled condition number of the stiffness matrix along a refinement
    ladder, with the fitted log-log slope versus 1/h (which needs >= 3
    distinct N, as fit_rate does)."""
    prob = InterfaceProblem(gamma=gamma, kappa0=1.0, kappa1=eta)

    def cell(space, method, warn):
        return [ErrorRecord(space.mesh.N, p, method, "scaled_cond",
                            scaled_condition_number(assemble(space, prob).K))]

    cfg = SweepConfig(degrees=(p,), Ns=tuple(Ns), methods=(method,))
    cfg.validate()
    report = _sweep(cfg, gamma, cell)
    if not report.rates:
        raise InsufficientDataError("need >= 3 distinct refinement levels")
    (slope,) = report.rates.values()  # fit_rate's slope is against log(1/N)
    return [(r.N, r.value) for r in report.rows], -slope


# ---------------------------------------------------------------------------
# serialization

def _sci(v):
    """Scientific notation with 3 significant digits, exponent without
    leading zeros (e.g. 4.92E-5)."""
    mant, exp = f"{v:.2E}".split("E")
    return f"{mant}E{int(exp):+d}"


def report_csv(report):
    problem = report.metadata["config"].problem
    return "problem,method,p,N,quantity,value\n" + "".join(
        f"{problem},{r.method},{r.p},{r.N},{r.quantity},{r.value:.17g}\n"
        for r in report.rows)


def report_markdown(report):
    cfg = report.metadata["config"]
    Ns = sorted({r.N for r in report.rows})
    lookup = {(r.quantity, r.method, r.p, r.N): r.value for r in report.rows}
    cols = [(m, p) for p in cfg.degrees for m in cfg.methods]

    def row(head, cells, fmt):
        return f"| {head} | " + " | ".join(
            "-" if v is None else fmt(v) for v in cells) + " |"

    lines = []
    for q in dict.fromkeys(r.quantity for r in report.rows):
        lines += [f"### {q}", "", row("N", (f"{m} p={p}" for m, p in cols), str),
                  "|" + "---|" * (len(cols) + 1)]
        lines += [row(N, (lookup.get((q, m, p, N)) for m, p in cols), _sci)
                  for N in Ns]
        lines += [row("rate", (report.rates.get((p, m, q)) for m, p in cols),
                      "{:.2f}".format), ""]
    return "\n".join(lines)


def emit_report(report, fmt, path):
    """Write a report as CSV or markdown to the file path, or to stdout
    when path is None."""
    if fmt not in ("csv", "markdown"):
        raise InvalidArgumentError(f"unknown format {fmt!r}")
    text = (report_csv if fmt == "csv" else report_markdown)(report)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def parse_csv(text):
    """Inverse of report_csv for the record rows."""
    rows = (line.split(",") for line in text.strip().splitlines()[1:])
    return [ErrorRecord(int(N), int(p), method, quantity, float(value))
            for _, method, p, N, quantity, value in rows]


def comma_list(text, item=int):
    """The comma-separated items of text, each stripped and parsed by item."""
    try:
        return tuple(item(part.strip()) for part in str(text).split(","))
    except ValueError:
        raise InvalidArgumentError(f"malformed list {text!r}") from None


# config key -> (SweepConfig field, parser of the key's text)
CONFIG_KEYS = {
    "problem": ("problem", str),
    "case": ("case", str),
    "gamma": ("gamma", float),
    "eta": ("eta", float),
    "degrees": ("degrees", comma_list),
    "ns": ("Ns", comma_list),
    "methods": ("methods", partial(comma_list, item=str.upper)),
    "eigs": ("eigen_indices", comma_list),
    "outputs": ("outputs", partial(comma_list, item=str)),
}


def load_config(path=None, overrides=None):
    """Build a SweepConfig from an INI-style file plus CLI overrides (None
    values ignored, each replacing its key; a gamma or eta override edits a
    case the file names alone), both keyed as CONFIG_KEYS.  An unknown key,
    a value that does not parse, a CASES name given with gamma or eta, or an
    eigen key in a source sweep raises InvalidArgumentError."""
    values = {}
    if path is not None:
        parser = configparser.ConfigParser()
        with open(path) as fh:
            content = fh.read()
        added = not content.lstrip().startswith("[")
        try:
            parser.read_string("[sweep]\n" * added + content)
            values.update(parser[parser.sections()[0]])
        except configparser.Error as exc:
            # line numbers as in the file, without the added header line
            msg = re.sub(r"\[line +(\d+)\]",
                         lambda m: f"[line {int(m[1]) - added:2d}]", str(exc))
            raise InvalidArgumentError(f"unreadable config {path}: {msg}") from None
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    coeffs = ("gamma", "eta")
    if (values.get("case") in CASES and "case" not in flags and flags.keys() & coeffs
            and not values.keys() & coeffs):
        values.update(CASES[values.pop("case")])
    values.update(flags)
    clash = [k for k in coeffs if k in values]
    if values.get("case") in CASES and clash:
        raise InvalidArgumentError(
            f"case = {values['case']} conflicts with {' and '.join(clash)}")
    eigen_only = [k for k in ("case", "gamma", "eta", "eigs", "outputs") if k in values]
    if values.get("problem", "source") == "source" and eigen_only:
        raise InvalidArgumentError(f"a source sweep takes no {', '.join(eigen_only)}")

    cfg = SweepConfig()
    for key, text in values.items():
        if key not in CONFIG_KEYS:
            raise InvalidArgumentError(f"unknown config key {key!r}")
        name, parse = CONFIG_KEYS[key]
        try:
            setattr(cfg, name, parse(text))
        except ValueError:
            raise InvalidArgumentError(f"{key} = {text!r} does not parse") from None
    cfg.validate()
    return cfg
