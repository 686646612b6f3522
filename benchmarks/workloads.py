"""The three benchmark workloads and their seeded inputs.

Every workload drives ``sgfem1d`` through its public names only, looked up
on the module at call time (``sgfem1d.assemble``, ``sgfem1d.cli.main``) so
that a traced run can wrap them.  One pass of a workload returns its
operations, a mapping from operation id to either the dict of values it
produced or the ``Failure`` it ended in, and the fitted SGFEM rates.
"""

import math
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sgfem1d
import sgfem1d.cli
import sgfem1d.exceptions
import sgfem1d.sweep

import reference

# Element counts at which a drawn interface must be non-fitting: every N of
# the full and quick ladders plus the large cell.
CHECKED_NS = (10, 20, 40, 80, 160, 640)
# A drawn gamma keeps at least this share of an element from every node, so
# the interface element is never cut into a sliver.
MIN_NODE_DISTANCE = 0.1
# Exact eigenvalues 1, 4 and 8 keep this relative gap to their neighbours,
# so that discrete eigenpairs are matched to the right exact ones.
MIN_EIGEN_GAP = 0.05


@dataclass(frozen=True)
class Case:
    """Coefficient data of one eigen table: kappa = (1, eta) split at gamma."""

    name: str
    gamma: float
    eta: float
    with_functions: bool


@dataclass(frozen=True)
class Failure:
    """An operation that raised.  Only the type name and message are kept:
    a traceback would keep the pass's matrices alive."""

    kind: str
    message: str

    @classmethod
    def of(cls, exc):
        return cls(type(exc).__name__, str(exc))


@dataclass(frozen=True)
class Inputs:
    degrees: tuple
    Ns: tuple
    methods: tuple
    indices: tuple
    cases: tuple
    large_N: int
    large_p: int
    large_k: int


class PassClock:
    """Wall time of one pass and of its steps; time spent in
    ``unclocked()`` blocks (output checks) is subtracted from both.

    Each ``step(name, kind)`` is bracketed by one run of the reference
    kernel of its kind before and one after (see reference.py), taken
    outside the clock; ``steps`` keeps (name, step time, mean reference
    time) in pass order."""

    def __init__(self):
        self.start = time.perf_counter()
        self.paused = 0.0
        self.steps = []
        self.wall = None

    @contextmanager
    def unclocked(self):
        t = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - t

    @contextmanager
    def step(self, name, kind):
        with self.unclocked():
            before = reference.measure(kind)
        t, paused = time.perf_counter(), self.paused
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t - (self.paused - paused)
            with self.unclocked():
                after = reference.measure(kind)
            self.steps.append((name, elapsed, 0.5 * (before + after)))

    def elapsed(self):
        return time.perf_counter() - self.start - self.paused

    def stop(self):
        """Keep the pass's wall time as ``wall``."""
        self.wall = self.elapsed()


def _nonfitting(gamma):
    return all(abs(gamma * N - round(gamma * N)) >= MIN_NODE_DISTANCE
               for N in CHECKED_NS)


def _gaps_ok(gamma, eta, indices):
    lam = [pr.lam for pr in sgfem1d.solve_matching_system(gamma, eta,
                                                          max(indices) + 1)]
    return all(abs(lam[i - 1] - lam[j]) > MIN_EIGEN_GAP * lam[i - 1]
               for i in indices for j in (i - 2, i) if j >= 0)


def make_cases(seed, indices):
    """Seed 0: the paper's case2 (gamma=1/3, eta=4, with eigenfunctions) and
    case3 (gamma=1/pi, eta=e^2, eigenvalues only).  Any other seed draws
    both (gamma, eta) pairs, gamma non-fitting at every benchmark N."""
    if seed == 0:
        c2, c3 = sgfem1d.sweep.CASES["case2"], sgfem1d.sweep.CASES["case3"]
        return (Case("case2", c2["gamma"], c2["eta"], True),
                Case("case3", c3["gamma"], c3["eta"], False))
    rng = np.random.default_rng(seed)
    cases = []
    for name, with_functions in (("drawn2", True), ("drawn3", False)):
        while True:
            gamma = float(rng.uniform(0.15, 0.85))
            eta = float(math.exp(rng.uniform(math.log(0.25), math.log(16.0))))
            if _nonfitting(gamma) and _gaps_ok(gamma, eta, indices):
                break
        cases.append(Case(name, gamma, eta, with_functions))
    return tuple(cases)


def make_inputs(seed, quick=False):
    indices = (1, 4, 8)
    return Inputs(
        degrees=(1, 2) if quick else (1, 2, 3),
        Ns=(10, 20, 40) if quick else (10, 20, 40, 80, 160),
        methods=("FEM", "SGFEM"),
        indices=indices,
        cases=make_cases(seed, indices),
        large_N=40 if quick else 640,
        large_p=3,
        large_k=8,
    )


def eigen_checks(K, M, sol):
    """Relative residuals ||K v - lam M v|| / ||K v|| per pair and the
    M-orthonormality defect max |V^T M V - I|."""
    KV, MV = K @ sol.vectors, M @ sol.vectors
    resid = (np.linalg.norm(KV - MV * sol.values, axis=0)
             / np.linalg.norm(KV, axis=0))
    orth = np.abs(sol.vectors.T @ MV - np.eye(len(sol.values))).max()
    return resid, float(orth)


def warm_up():
    """One tiny cell through every layer, so that import-time and lazy
    LAPACK/BLAS set-up are done before anything is timed."""
    lib = sgfem1d
    u, f = lib.manufactured_source()
    space = lib.build_space(lib.build_uniform_mesh(5, 1.0 / 3.0), 2)
    system = lib.assemble(space, lib.InterfaceProblem(
        gamma=1.0 / 3.0, kappa0=1.0, kappa1=4.0, source=f))
    K, M = system.K, system.M
    U = lib.solve_spd(K, system.F)
    lib.h1_semi_error(_dofs(space, U), space, u)
    lib.l2_error(_dofs(space, U), space, u)
    sol = lib.generalized_eigs(K, M, 2)
    eigen_checks(K, M, sol)
    lib.scaled_condition_number(K)
    lib.exact_eigenfunction(lib.solve_matching_system(1.0 / 3.0, 4.0, 1)[0])


def _dofs(space, vec):
    return sgfem1d.DofVector(vec[:space.n_fem], vec[space.n_fem:])


def run_source_ladder(inp, clock):
    """The paper's source table through the command-line entry point."""
    p_list = ",".join(str(p) for p in inp.degrees)
    n_list = ",".join(str(N) for N in inp.Ns)
    cells = [f"{m}/p{p}/N{N}" for p in inp.degrees for N in inp.Ns
             for m in inp.methods]
    here = Path(__file__).resolve().parent
    with tempfile.TemporaryDirectory(dir=here, prefix=".out-") as tmp:
        out = Path(tmp) / "source.csv"
        try:
            with clock.step("source", "interp"):
                code = sgfem1d.cli.main(["source", "--p", p_list, "--N", n_list,
                                         "--out", str(out)])
        except Exception as exc:  # recorded as failed operations
            return {f"source/{c}": Failure.of(exc) for c in cells}, {}
        with clock.unclocked():
            if code != 0:
                err = Failure("ExitCode", f"sgfem1d source exited with {code}")
                return {f"source/{c}": err for c in cells}, {}
            values = {}
            for r in sgfem1d.sweep.parse_csv(out.read_text()):
                values.setdefault(f"source/{r.method}/p{r.p}/N{r.N}",
                                  {})[r.quantity] = r.value
    missing = Failure("Missing", "cell missing from the report")
    return {f"source/{c}": values.get(f"source/{c}", missing)
            for c in cells}, {}


def _eigen_entry(idx, lam, space, sol, resid, orth, exact):
    """The table entry of one eigen index: eigenvalue error and, with
    eigenfunctions, the aligned eigenfunction's errors.  An eigenfunction
    too coarse to align (DegenerateAlignmentError, the library's guard) is
    recorded as unresolved, with its eigenvalue still checked and the mesh's
    degrees of freedom per half-wave of eigenfunction idx."""
    lib = sgfem1d
    lam_h = sol.values[idx - 1]
    vals = {"rel_lambda": lib.relative_eigenvalue_error(lam_h, lam),
            "lambda_h": float(lam_h), "lambda": lam,
            "residual": float(resid[idx - 1]), "m_orth": orth}
    if exact is not None:
        try:
            uh = lib.align_eigenfunction(
                _dofs(space, sol.vectors[:, idx - 1]), space, exact)
        except sgfem1d.exceptions.DegenerateAlignmentError as exc:
            vals["unresolved"] = type(exc).__name__
            vals["dofs_per_halfwave"] = space.p * space.mesh.N / idx
        else:
            vals["h1"] = lib.h1_semi_error(uh, space, exact)
            vals["l2"] = lib.l2_error(uh, space, exact)
    return vals


def _eigen_case(inp, case, clock, ops):
    lib = sgfem1d
    kmax = max(inp.indices)
    with clock.step(f"eigen/{case.name}/oracle", "interp"):
        pairs = lib.solve_matching_system(case.gamma, case.eta, kmax)
        exact = ({i: lib.exact_eigenfunction(pairs[i - 1]) for i in inp.indices}
                 if case.with_functions else {})
    prob = lib.InterfaceProblem(gamma=case.gamma, kappa0=1.0, kappa1=case.eta)
    records = {}
    for p in inp.degrees:
        for N in inp.Ns:
            for method in inp.methods:
                cell = f"eigen/{case.name}/{method}/p{p}/N{N}"
                with clock.step(cell, "interp"):
                    try:
                        mesh = lib.build_uniform_mesh(N, case.gamma)
                        space = lib.build_space(mesh, p, enrich=(method == "SGFEM"))
                        system = lib.assemble(space, prob)
                        K, M = system.K, system.M
                        sol = lib.generalized_eigs(K, M, kmax)
                        with clock.unclocked():
                            resid, orth = eigen_checks(K, M, sol)
                    except Exception as exc:  # recorded; the ladder goes on
                        for idx in inp.indices:
                            ops[f"{cell}/lambda{idx}"] = Failure.of(exc)
                        continue
                    for idx in inp.indices:
                        op = f"{cell}/lambda{idx}"
                        try:
                            vals = _eigen_entry(idx, pairs[idx - 1].lam, space,
                                                sol, resid, orth, exact.get(idx))
                        except Exception as exc:  # recorded; the ladder goes on
                            ops[op] = Failure.of(exc)
                            continue
                        ops[op] = vals
                        if method == "SGFEM":
                            records.setdefault((p, idx), []).append(
                                lib.ErrorRecord(N, p, method, "rel_lambda",
                                                vals["rel_lambda"]))
    rates = {}
    for (p, idx), recs in records.items():
        try:
            rates[f"eigen/{case.name}/SGFEM/p{p}/lambda{idx}"] = (
                p, lib.fit_rate(recs))
        except sgfem1d.exceptions.InsufficientDataError:
            continue
    return rates


def run_eigen_ladder(inp, clock):
    """The paper's eigen tables, cell by cell through the library."""
    ops, rates = {}, {}
    for case in inp.cases:
        try:
            rates.update(_eigen_case(inp, case, clock, ops))
        except Exception as exc:  # oracle or mesh: the rest of the case fails
            for p in inp.degrees:
                for N in inp.Ns:
                    for m in inp.methods:
                        for idx in inp.indices:
                            ops.setdefault(f"eigen/{case.name}/{m}/p{p}/N{N}"
                                           f"/lambda{idx}", Failure.of(exc))
    return ops, rates


def run_large_cell(inp, clock):
    """One large SGFEM cell: source solve and H1 error at gamma = 1/3, then
    the smallest eigenpairs and the scaled condition number of K for the
    first eigen case.  Assembly and norms are interpreter-bound steps; the
    dense solve, eigensolve and condition number are LAPACK-bound."""
    lib = sgfem1d
    N, p, k = inp.large_N, inp.large_p, inp.large_k
    ops = {}
    try:
        with clock.step("source/assemble", "interp"):
            u, f = lib.manufactured_source()
            mesh = lib.build_uniform_mesh(N, 1.0 / 3.0)
            space = lib.build_space(mesh, p)
            system = lib.assemble(space, lib.InterfaceProblem(
                gamma=1.0 / 3.0, kappa0=1.0, kappa1=4.0, source=f))
            K, F = system.K, system.F
        with clock.step("source/solve", "lapack"):
            U = lib.solve_spd(K, F)
        with clock.unclocked():
            resid = float(np.linalg.norm(K @ U - F) / np.linalg.norm(F))
        with clock.step("source/h1", "interp"):
            h1 = lib.h1_semi_error(_dofs(space, U), space, u)
        ops[f"large/N{N}/source"] = {"h1": h1, "residual": resid}
    except Exception as exc:  # recorded; the cell goes on
        ops[f"large/N{N}/source"] = Failure.of(exc)

    case = inp.cases[0]
    eig_ops = [f"large/N{N}/{case.name}/lambda{i}" for i in range(1, k + 1)]
    cond_op = f"large/N{N}/{case.name}/cond"
    try:
        with clock.step("eigen/assemble", "interp"):
            pairs = lib.solve_matching_system(case.gamma, case.eta, k)
            mesh = lib.build_uniform_mesh(N, case.gamma)
            space = lib.build_space(mesh, p)
            system = lib.assemble(space, lib.InterfaceProblem(
                gamma=case.gamma, kappa0=1.0, kappa1=case.eta))
            K, M = system.K, system.M
    except Exception as exc:  # recorded; the cell goes on
        for op in eig_ops + [cond_op]:
            ops[op] = Failure.of(exc)
        return ops, {}
    try:
        with clock.step("eigen/eigs", "lapack"):
            sol = lib.generalized_eigs(K, M, k)
        with clock.unclocked():
            resid, orth = eigen_checks(K, M, sol)
        for i, op in enumerate(eig_ops):
            lam_h, lam = sol.values[i], pairs[i].lam
            ops[op] = {"rel_lambda": lib.relative_eigenvalue_error(lam_h, lam),
                       "lambda_h": float(lam_h), "lambda": lam,
                       "residual": float(resid[i]), "m_orth": orth}
    except Exception as exc:  # recorded; the cell goes on
        for op in eig_ops:
            ops[op] = Failure.of(exc)
    try:
        with clock.step("eigen/cond", "lapack"):
            ops[cond_op] = {"cond": lib.scaled_condition_number(K)}
    except Exception as exc:  # recorded
        ops[cond_op] = Failure.of(exc)
    return ops, {}


WORKLOADS = {
    "source_ladder": run_source_ladder,
    "eigen_ladder": run_eigen_ladder,
    "large_cell": run_large_cell,
}
