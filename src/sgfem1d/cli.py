"""Command-line entry point: sgfem1d {source,eigen,oracle,cond}.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import os
import sys

import numpy as np

from . import sweep as sweep_mod
from .analytic import exact_eigenfunction, solve_matching_system
from .assembly import InterfaceProblem, assemble
from .basis import DofVector, build_space, eval_solution
from .densela import generalized_eigs
from .errors import align_eigenfunction
from .exceptions import InsufficientDataError, InvalidArgumentError, SgfemError
from .mesh import build_uniform_mesh
from .sweep import comma_list, emit_report, load_config, run_cond_sweep


def build_parser():
    parser = argparse.ArgumentParser(prog="sgfem1d",
                                     description="1D FEM/SGFEM interface solver")
    sub = parser.add_subparsers(dest="command", required=True)

    src = sub.add_parser("source", help="manufactured source-problem sweep")
    eig = sub.add_parser("eigen", help="interface eigenvalue sweep")
    for sp in (src, eig):
        sp.add_argument("--config", default=None)
        sp.add_argument("--p", default=None, help="comma list of degrees")
        sp.add_argument("--N", default=None, help="comma list of element counts")
        sp.add_argument("--methods", default=None, help="fem,sgfem")
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "markdown"), default="csv")
        sp.add_argument("--dump-matrices", default=None, metavar="DIR",
                        help="write K, M in MatrixMarket format")
    eig.add_argument("--case", choices=("1", "2"), default=None,
                     help="1: gamma=1/3, eta=4; 2: gamma=1/pi, eta=e^2")
    eig.add_argument("--eigs", default=None, help="comma list of eigen indices")
    eig.add_argument("--gamma", default=None, type=float)
    eig.add_argument("--eta", default=None, type=float)
    eig.add_argument("--with-eigenfunctions", action="store_true")
    eig.add_argument("--dump-function", default=None, metavar="PATH",
                     help="write (x, u_h, u) samples on a 1000-point grid")
    eig.add_argument("--dump-index", default=1, type=int)

    orc = sub.add_parser("oracle", help="exact eigenpairs from the matching system")
    orc.add_argument("--gamma", required=True, type=float)
    orc.add_argument("--eta", required=True, type=float)
    orc.add_argument("--count", required=True, type=int)

    cnd = sub.add_parser("cond", help="scaled condition number ladder")
    cnd.add_argument("--p", default=1, type=int)
    cnd.add_argument("--N-list", default="20,40,80,160,320")
    cnd.add_argument("--gamma", default=1.0 / 3.0, type=float)
    cnd.add_argument("--eta", default=4.0, type=float)
    cnd.add_argument("--method", default="SGFEM", choices=("FEM", "SGFEM"))
    return parser


def _dump_matrices(cfg, directory, gamma, eta):
    import scipy.io
    os.makedirs(directory, exist_ok=True)
    prob = InterfaceProblem(gamma=gamma, kappa0=1.0, kappa1=eta)

    def cell(space, method, warn):
        system = assemble(space, prob)
        tag = f"{method.lower()}_p{space.p}_N{space.mesh.N}"
        scipy.io.mmwrite(os.path.join(directory, f"K_{tag}.mtx"), np.asarray(system.K))
        scipy.io.mmwrite(os.path.join(directory, f"M_{tag}.mtx"), np.asarray(system.M))
        return []

    sweep_mod._sweep(cfg, gamma, cell)


def _dump_function(cfg, gamma, eta, idx, path):
    pairs = solve_matching_system(gamma, eta, idx)
    exact = exact_eigenfunction(pairs[idx - 1])
    method = cfg.methods[0]
    p, N = cfg.degrees[0], cfg.Ns[-1]
    mesh = build_uniform_mesh(N, gamma)
    space = build_space(mesh, p, enrich=(method == "SGFEM"))
    system = assemble(space, InterfaceProblem(gamma=gamma, kappa0=1.0, kappa1=eta))
    sol = generalized_eigs(system.K, system.M, idx)
    vec = sol.vectors[:, idx - 1]
    dofs = DofVector(vec[:space.n_fem], vec[space.n_fem:])
    dofs = align_eigenfunction(dofs, space, exact)
    xs = np.linspace(0.0, 1.0, 1000)
    np.savetxt(path, np.column_stack([xs, eval_solution(space, dofs, xs),
                                      exact.value(xs)]),
               fmt="%.17g", delimiter=",", header="x,u_h,u", comments="")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "oracle":
            pairs = solve_matching_system(args.gamma, args.eta, args.count)
            print("index,omega1,d,lambda")
            for pr in pairs:
                print(f"{pr.index},{pr.omega1:.17g},{pr.d:.17g},{pr.lam:.17g}")
            return 0

        if args.command == "cond":
            table, slope = run_cond_sweep(args.p, comma_list(args.N_list),
                                          args.gamma, args.eta, args.method)
            print("N,scaled_cond")
            for N, c in table:
                print(f"{N},{c:.17g}")
            print(f"# log-log slope vs 1/h: {slope:.3f}")
            return 0

        overrides = {"problem": args.command, "degrees": args.p, "ns": args.N,
                     "methods": args.methods}
        if args.command == "source":
            cfg = load_config(args.config, overrides)
            report = sweep_mod.run_source_sweep(cfg)
        else:
            if args.case is not None and (args.gamma, args.eta) != (None, None):
                raise InvalidArgumentError("give either --case or --gamma/--eta")
            overrides.update(eigs=args.eigs, gamma=args.gamma, eta=args.eta)
            if args.case is not None:
                overrides["case"] = "case2" if args.case == "1" else "case3"
            if (args.gamma, args.eta) != (None, None):
                overrides["case"] = "custom"
            if args.with_eigenfunctions:
                overrides["outputs"] = "eigenfunctions"
            cfg = load_config(args.config, overrides)
            report = sweep_mod.run_eigen_sweep(cfg)
        gamma, eta = report.metadata["gamma"], report.metadata["eta"]
        if args.command == "eigen" and args.dump_function is not None:
            _dump_function(cfg, gamma, eta, args.dump_index, args.dump_function)
        if args.dump_matrices is not None:
            _dump_matrices(cfg, args.dump_matrices, gamma, eta)

        for w in report.warnings:
            print(f"warning: {w}", file=sys.stderr)
        emit_report(report, args.format, args.out)
        return 0
    except (InvalidArgumentError, InsufficientDataError, OSError) as exc:
        print(f"config error: {_message(exc)}", file=sys.stderr)
        return 2
    except SgfemError as exc:
        print(f"numerical failure: {_message(exc)}", file=sys.stderr)
        return 3


def _message(exc):
    """The exception text and its notes (where the sweep names the cell)."""
    return " ".join([str(exc), *getattr(exc, "__notes__", ())])


if __name__ == "__main__":
    sys.exit(main())
