"""Command-line interface: exit codes, outputs, file emission."""

import argparse
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from sgfem1d import (InterfaceProblem, assemble, build_space, build_uniform_mesh,
                     densela, sweep)
from sgfem1d.cli import main
from sgfem1d.exceptions import InvalidArgumentError, NotPositiveDefiniteError


def test_oracle_output(capsys):
    code = main(["oracle", "--gamma", "0.3333333333333333",
                 "--eta", "4", "--count", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,omega1,d,lambda"
    idx, w1, d, lam = lines[1].split(",")
    assert int(idx) == 1
    assert float(lam) == pytest.approx(2.25 * np.pi**2, rel=1e-10)
    assert float(d) == pytest.approx(-1.0, rel=1e-10)


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["oracle", "--gamma", "0.3", "--eta", "4"]) == 2  # --count missing
    assert main(["oracle", "--gamma", "0.3", "--eta", "4", "--count", "1"]) == 0
    assert built == []
    assert capsys.readouterr().out.startswith("index,omega1,d,lambda\n1,")


def test_source_sweep_csv(capsys):
    code = main(["source", "--p", "1", "--N", "10,20,40",
                 "--methods", "sgfem"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "problem,method,p,N,quantity,value"
    assert len(lines) == 1 + 3 * 2  # 3 levels x (h1 + l2)
    assert all(line.startswith("source,SGFEM,1,") for line in lines[1:])


def test_eigen_sweep_markdown(capsys):
    code = main(["eigen", "--case", "1", "--p", "1", "--N", "10,20,40",
                 "--methods", "sgfem", "--eigs", "1", "--format", "markdown"])
    out = capsys.readouterr().out
    assert code == 0
    assert "### rel_lambda_1" in out
    assert "| rate |" in out


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "r.csv"
    code = main(["source", "--p", "1", "--N", "10,20", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    assert out_path.read_text().startswith("problem,method,p,N,quantity,value")


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("degrees = 1\nns = 10,20\nmethods = sgfem\n")
    code = main(["source", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "SGFEM,1,20" in out


def test_missing_config_is_config_error(tmp_path, capsys):
    code = main(["source", "--config", str(tmp_path / "nope.cfg")])
    capsys.readouterr()
    assert code == 2


def test_bad_arguments_exit_2(capsys):
    assert main(["source", "--N", "40,10"]) == 2  # not ascending
    capsys.readouterr()
    assert main(["bogus-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, config, message", [
    (["eigen"], "outputs = eigenfunction\n", "unknown outputs"),
    (["eigen", "--methods", "FEM,FEM"], None, "methods repeat"),
    (["source", "--methods", "fem,FEM"], None, "methods repeat"),
    (["source", "--N", "10,10,20"], None, "strictly ascending"),
    (["source", "--p", "1,1"], None, "degrees repeat"),
    (["eigen", "--eigs", "1,4,1"], None, "eigen_indices repeat"),
    (["source"], "gamma = 0.4\n", "source sweep takes no gamma"),
    (["source"], "eta = 9\n", "source sweep takes no eta"),
    (["source"], "case = case3\n", "source sweep takes no case"),
    (["source"], "eigs = 2\n", "source sweep takes no eigs"),
    (["source"], "outputs = eigenfunctions\n", "source sweep takes no outputs"),
], ids=["outputs-typo", "methods", "methods-case", "N", "p", "eigs",
        "source-gamma", "source-eta", "source-case", "source-eigs", "source-outputs"])
def test_repeated_or_unknown_config_entries_exit_2(tmp_path, capsys, argv, config,
                                                   message):
    # each of these used to exit 0, writing no eigenfunction rows, every
    # row twice, or source rows that ignore an eigen key
    if config is not None:
        (tmp_path / "sweep.cfg").write_text(config)
        argv = argv + ["--config", str(tmp_path / "sweep.cfg")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_numerical_failure_exit_3(capsys):
    # negative coefficient passes argument parsing but fails numerically
    code = main(["eigen", "--gamma", "0.5", "--eta", "-2.0",
                 "--p", "1", "--N", "10,20,40"])
    capsys.readouterr()
    assert code in (2, 3)  # rejected as invalid input


def test_cond_command(capsys):
    code = main(["cond", "--p", "1", "--N-list", "10,20,40"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,scaled_cond"
    assert lines[-1].startswith("# log-log slope")


def test_dump_matrices(tmp_path, capsys):
    import scipy.io
    d = tmp_path / "mats"
    code = main(["source", "--p", "1", "--N", "10,20", "--methods", "sgfem",
                 "--dump-matrices", str(d)])
    capsys.readouterr()
    assert code == 0
    K = scipy.io.mmread(d / "K_sgfem_p1_N10.mtx").toarray()  # coordinate format
    assert K.shape == (11, 11)  # 9 FEM + 2 enrichment dofs
    np.testing.assert_allclose(K, K.T, atol=1e-12)
    # every matrix of every cell reads back entry for entry
    prob = InterfaceProblem(gamma=1.0 / 3.0, kappa0=1.0, kappa1=4.0)
    for N in (10, 20):
        system = assemble(build_space(build_uniform_mesh(N, 1.0 / 3.0), 1), prob)
        for name in ("K", "M"):
            got = scipy.io.mmread(d / f"{name}_sgfem_p1_N{N}.mtx").toarray()
            np.testing.assert_array_equal(got, np.asarray(getattr(system, name)))


def test_dumped_matrices_are_symmetric_lower_triangles(tmp_path, capsys):
    import scipy.io
    code = main(["source", "--p", "1,3", "--N", "10,40", "--methods", "sgfem",
                 "--dump-matrices", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    prob = InterfaceProblem(gamma=1.0 / 3.0, kappa0=1.0, kappa1=4.0)
    files = 0
    for p in (1, 3):
        for N in (10, 40):  # p = 3, N = 40 has 123 rows
            system = assemble(build_space(build_uniform_mesh(N, 1.0 / 3.0), p), prob)
            for name in ("K", "M"):
                path = tmp_path / f"{name}_sgfem_p{p}_N{N}.mtx"
                lines = path.read_text().splitlines()
                assert lines[0].split()[1:] == ["matrix", "coordinate", "real", "symmetric"]
                body = [line.split() for line in lines if not line.startswith("%")]
                A = np.asarray(getattr(system, name))
                assert [int(v) for v in body[0]] == [len(A), len(A), np.count_nonzero(np.tril(A))]
                assert all(int(i) >= int(j) for i, j, _ in body[1:])
                np.testing.assert_array_equal(scipy.io.mmread(path).toarray(), A)
                files += 1
    assert files == len(list(tmp_path.iterdir())) == 8


def test_dump_matrices_memory_is_linear_in_ndof(tmp_path, capsys):
    import scipy.io
    # p = 3, N = 10^4: ndof 30003, so a dense K or M would take 7.2 GB
    tracemalloc.start()
    try:
        code = main(["source", "--p", "3", "--N", "10000", "--methods", "sgfem",
                     "--dump-matrices", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0 and peak < 850 * 30003
    K = scipy.io.mmread(tmp_path / "K_sgfem_p3_N10000.mtx")
    assert K.shape == (30003, 30003) and abs(K - K.T).max() == 0.0


def test_dump_function(tmp_path, capsys):
    path = tmp_path / "u.csv"
    code = main(["eigen", "--case", "1", "--p", "1", "--N", "10,20",
                 "--methods", "sgfem", "--eigs", "1",
                 "--dump-function", str(path), "--dump-index", "1"])
    capsys.readouterr()
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,u_h,u"
    assert len(lines) == 1001
    x, uh, u = map(float, lines[500].split(","))
    assert uh == pytest.approx(u, abs=0.05)


def test_cond_needs_three_levels(capsys):
    # one level used to print a one-point "slope" and exit 0
    assert main(["cond", "--N-list", "20"]) == 2
    assert "3 distinct" in capsys.readouterr().err
    assert main(["cond", "--N-list", "20,40,40"]) == 2
    capsys.readouterr()
    # a repeated or descending list used to print its rows and a slope
    for ns in ("20,20,40,80", "80,40,20"):
        assert main(["cond", "--N-list", ns]) == 2
        captured = capsys.readouterr()
        assert "strictly ascending" in captured.err and captured.out == ""


def test_case_conflicts_with_gamma_or_eta(capsys):
    # --case used to win silently over --gamma
    assert main(["eigen", "--case", "1", "--gamma", "0.3"]) == 2
    assert "--case" in capsys.readouterr().err
    assert main(["eigen", "--case", "2", "--eta", "2.5"]) == 2
    capsys.readouterr()


def test_unresolved_eigenfunction_does_not_abort_sweep(capsys):
    # FEM p=1 N=10 resolves u_8 too coarsely to align with the exact one
    code = main(["eigen", "--case", "1", "--with-eigenfunctions"])
    captured = capsys.readouterr()
    assert code == 0
    assert "(p=1, N=10, FEM) eigenfunction 8 unresolved" in captured.err
    rows = {(r.method, r.p, r.N, r.quantity) for r in sweep.parse_csv(captured.out)}
    assert ("FEM", 1, 10, "rel_lambda_8") in rows
    assert ("FEM", 1, 10, "h1_u8") not in rows
    assert ("FEM", 1, 10, "l2_u8") not in rows
    assert ("FEM", 1, 20, "h1_u8") in rows
    assert ("SGFEM", 1, 10, "h1_u8") in rows


def test_numerical_failure_names_the_cell(monkeypatch, capsys):
    def fail(K, F):
        raise NotPositiveDefiniteError("not SPD")

    monkeypatch.setattr(sweep, "solve_spd", fail)
    assert main(["source", "--p", "2", "--N", "10,20", "--methods", "fem"]) == 3
    err = capsys.readouterr().err
    assert "not SPD" in err and "(p=2, N=10, FEM)" in err


@pytest.mark.parametrize("argv", [
    ["source", "--p", "1,x"],
    ["source", "--N", "10,y"],
    ["eigen", "--eigs", "1,a"],
    ["cond", "--N-list", "20,x"],
])
def test_malformed_numbers_are_config_errors(argv, capsys):
    # each of these used to escape as a ValueError traceback, exit 1
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and argv[-1] in err


def test_malformed_config_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("gamma = abc\n")
    assert main(["eigen", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "gamma" in err and "abc" in err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    # a misspelt key used to be ignored and the default ladder run
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("nss = 10,20\n")
    assert main(["source", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "nss" in err


def test_cond_failure_names_the_cell(capsys):
    assert main(["cond", "--eta", "-1"]) == 3
    assert "(p=1, N=20, SGFEM)" in capsys.readouterr().err


def test_eta_flag_overrides_a_config_case(tmp_path, capsys):
    # --eta alone used to be ignored when the config file named a case
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text("problem = eigen\ncase = case2\n")
    ladder = ["--p", "1", "--N", "10,20", "--methods", "sgfem", "--eigs", "1"]
    assert main(["eigen", "--config", str(cfg), "--eta", "2.5", *ladder]) == 0
    with_case = capsys.readouterr().out
    assert main(["eigen", "--gamma", str(1.0 / 3.0), "--eta", "2.5", *ladder]) == 0
    assert with_case == capsys.readouterr().out


def test_eigensolver_failure_exits_3_and_names_the_cell(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                  np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(densela, "eigsh", fail)
    # from N = 160 on, p = 1 cells are large enough for ARPACK
    assert main(["eigen", "--p", "1", "--N", "80,160,320"]) == 3
    err = capsys.readouterr().err
    assert "No convergence" in err and "(p=1, N=160, FEM)" in err


@pytest.mark.parametrize("name, N", [("dsyevr", "10,20,40"), ("dsygvd", "160,320")])
def test_lapack_failure_exits_3_and_names_the_cell(monkeypatch, capsys, name, N):
    # dsyevr solves the dense cells (p = 1: up to N = 80), dsygvd closes every cell
    routine = getattr(densela.lapack, name)
    monkeypatch.setattr(densela.lapack, name, lambda *args, **kw: (
        *routine(*args, **kw)[:-1], 1))
    assert main(["eigen", "--p", "1", "--N", N]) == 3
    err = capsys.readouterr().err
    cell = f"(p=1, N={N.split(',')[0]}, FEM)"
    assert f"{name} failed with info = 1" in err and cell in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--gamma", "0.3", "--eta", "nan", "--count", "1"],
    ["oracle", "--gamma", "0.3", "--eta", "inf", "--count", "1"],
    ["eigen", "--gamma", "0.3", "--eta", "nan"],
])
def test_non_finite_eta_is_config_error(argv, capsys):
    # each of these used to scan for roots forever
    assert main(argv) == 2
    assert "eta must be positive and finite" in capsys.readouterr().err


def test_non_finite_eta_in_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text("problem = eigen\neta = nan\n")
    assert main(["eigen", "--config", str(cfg)]) == 2
    assert "eta must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["nan", "inf"])
def test_non_finite_cond_coefficient_is_numerical_failure(eta, capsys):
    # used to exit 2 with "matrix must be symmetric" after RuntimeWarnings
    assert main(["cond", "--eta", eta]) == 3
    assert "not positive and finite" in capsys.readouterr().err


def test_case1_is_not_a_case(tmp_path, capsys):
    # case1 (gamma = 1/3, eta = 1) was dropped from sweep.CASES
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text("problem = eigen\ncase = case1\n")
    with pytest.raises(InvalidArgumentError, match="unknown case 'case1'"):
        sweep.load_config(str(cfg))
    assert main(["eigen", "--config", str(cfg)]) == 2
    assert "case1" in capsys.readouterr().err


def test_config_case_conflicts_with_gamma(tmp_path, capsys):
    # the case used to win silently over the file's gamma
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text("problem = eigen\ncase = case3\ngamma = 0.3\n")
    assert main(["eigen", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "case3" in err and "gamma" in err


def test_case_flag_conflicts_with_config_gamma(tmp_path, capsys):
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text("problem = eigen\ngamma = 0.3\n")
    assert main(["eigen", "--case", "1", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "case2" in err and "gamma" in err


_LADDER = {"degrees": "1", "ns": "10,20", "methods": "sgfem", "eigs": "1"}


@pytest.mark.parametrize("problem, flag, key, value", [
    ("source", ["--p", "2"], "degrees", "2"),
    ("source", ["--N", "20,40"], "ns", "20,40"),
    ("source", ["--methods", "fem"], "methods", "fem"),
    ("eigen", ["--p", "2"], "degrees", "2"),
    ("eigen", ["--N", "20,40"], "ns", "20,40"),
    ("eigen", ["--methods", "fem"], "methods", "fem"),
    ("eigen", ["--eigs", "2"], "eigs", "2"),
    ("eigen", ["--gamma", "0.3"], "gamma", "0.3"),
    ("eigen", ["--eta", "9"], "eta", "9"),
    ("eigen", ["--with-eigenfunctions"], "outputs", "eigenfunctions"),
    ("eigen", ["--case", "2"], "case", "case3"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_each_flag_is_its_config_key(tmp_path, capsys, problem, flag, key, value):
    # a flag and its config key run the same sweep, byte for byte
    ladder = {k: v for k, v in _LADDER.items() if problem == "eigen" or k != "eigs"}

    def run(argv, entries):
        (tmp_path / "sweep.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in {"problem": problem, **entries}.items()))
        assert main([problem, "--config", str(tmp_path / "sweep.cfg"), *argv]) == 0
        return capsys.readouterr().out

    from_key = run([], {**ladder, key: value})
    from_flag = run(flag, {k: v for k, v in ladder.items() if k != key})
    assert from_flag == from_key and from_key != run([], ladder)


@pytest.mark.parametrize("flag, same", [
    (["--eta", "9"], ["--gamma", str(1.0 / np.pi), "--eta", "9"]),
    (["--gamma", "0.3"], ["--gamma", "0.3", "--eta", str(float(np.e) ** 2)]),
], ids=["eta", "gamma"])
def test_coefficient_flag_edits_the_config_case(tmp_path, capsys, flag, same):
    # a flag used to replace the file's case by the default gamma or eta
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text("problem = eigen\ncase = case3\n")
    ladder = ["--p", "1", "--N", "10,20", "--methods", "sgfem", "--eigs", "1"]
    assert main(["eigen", "--config", str(cfg), *flag, *ladder]) == 0
    edited = capsys.readouterr().out
    assert main(["eigen", *same, *ladder]) == 0
    assert edited == capsys.readouterr().out


def test_config_case_and_gamma_conflict_under_an_eta_flag(tmp_path, capsys):
    # --eta used to hide the file's own case3 / gamma conflict
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text("problem = eigen\ncase = case3\ngamma = 0.3\n")
    assert main(["eigen", "--config", str(cfg), "--eta", "9"]) == 2
    captured = capsys.readouterr()
    assert "case3" in captured.err and "gamma" in captured.err and captured.out == ""
