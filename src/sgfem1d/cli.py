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
from .sweep import CASES, emit_report, load_config, run_cond_sweep


def _int_list(s):
    return tuple(int(x) for x in s.split(","))


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


def _dump_matrices(cfg, directory, gamma, eta, source=None):
    import scipy.io
    os.makedirs(directory, exist_ok=True)
    prob = InterfaceProblem(gamma=gamma, kappa0=1.0, kappa1=eta, source=source)
    for p in cfg.degrees:
        for N in cfg.Ns:
            for method in cfg.methods:
                mesh = build_uniform_mesh(N, gamma)
                space = build_space(mesh, p, enrich=(method == "SGFEM"))
                system = assemble(space, prob)
                tag = f"{method.lower()}_p{p}_N{N}"
                scipy.io.mmwrite(os.path.join(directory, f"K_{tag}.mtx"), system.K)
                scipy.io.mmwrite(os.path.join(directory, f"M_{tag}.mtx"), system.M)


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
    with open(path, "w") as fh:
        fh.write("x,u_h,u\n")
        for x, vh, v in zip(xs, eval_solution(space, dofs, xs), exact.value(xs)):
            fh.write(f"{x:.17g},{vh:.17g},{v:.17g}\n")


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
            Ns = _int_list(args.N_list)
            table, slope = run_cond_sweep(args.p, Ns, args.gamma, args.eta,
                                          args.method)
            print("N,scaled_cond")
            for N, c in table:
                print(f"{N},{c:.17g}")
            print(f"# log-log slope vs 1/h: {slope:.3f}")
            return 0

        overrides = {
            "degrees": args.p,
            "ns": args.N,
            "methods": None if args.methods is None else args.methods.upper(),
        }
        if args.command == "source":
            overrides["problem"] = "source"
            cfg = load_config(args.config, overrides)
            report = sweep_mod.run_source_sweep(cfg)
            gamma, eta = 1.0 / 3.0, 4.0
        else:
            overrides["problem"] = "eigen"
            if args.case is not None and (args.gamma, args.eta) != (None, None):
                raise InvalidArgumentError("give either --case or --gamma/--eta")
            if args.case is not None:
                overrides["case"] = "case2" if args.case == "1" else "case3"
            if args.eigs is not None:
                overrides["eigs"] = args.eigs
            if args.gamma is not None:
                overrides["gamma"] = args.gamma
                overrides["case"] = overrides.get("case", "custom")
            if args.eta is not None:
                overrides["eta"] = args.eta
            if args.with_eigenfunctions:
                overrides["outputs"] = "eigenfunctions"
            cfg = load_config(args.config, overrides)
            report = sweep_mod.run_eigen_sweep(cfg)
            gamma = report.metadata["gamma"]
            eta = report.metadata["eta"]
            if args.dump_function is not None:
                _dump_function(cfg, gamma, eta, args.dump_index,
                               args.dump_function)

        if args.dump_matrices is not None:
            _dump_matrices(cfg, args.dump_matrices, gamma, eta)

        for w in report.warnings:
            print(f"warning: {w}", file=sys.stderr)
        if args.out is not None:
            emit_report(report, args.format, args.out)
        else:
            text = (sweep_mod.report_csv(report) if args.format == "csv"
                    else sweep_mod.report_markdown(report))
            print(text, end="")
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
