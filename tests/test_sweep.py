"""Sweep driver, report serialization, config parsing, determinism."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from sgfem1d import (Report, SweepConfig, emit_report, run_cond_sweep,
                     run_eigen_sweep, run_source_sweep)
from sgfem1d import sweep
from sgfem1d.errors import fit_rate
from sgfem1d.exceptions import EigenvalueMismatchError, InvalidArgumentError
from sgfem1d.sweep import load_config, parse_csv, report_csv, report_markdown


@pytest.fixture(scope="module")
def small_source_report():
    cfg = SweepConfig(problem="source", degrees=(1,), Ns=(10, 20, 40),
                      methods=("FEM", "SGFEM"))
    return run_source_sweep(cfg)


@pytest.fixture(scope="module")
def small_eigen_report():
    cfg = SweepConfig(problem="eigen", case="case2", degrees=(1,),
                      Ns=(10, 20, 40), methods=("SGFEM",),
                      eigen_indices=(1, 4))
    return run_eigen_sweep(cfg)


def test_source_sweep_rows_and_rates(small_source_report):
    rep = small_source_report
    assert rep.metadata["gamma"] == 1.0 / 3.0 and rep.metadata["eta"] == 4.0
    # 1 degree x 3 levels x 2 methods x 2 quantities
    assert len(rep.rows) == 12
    assert (1, "SGFEM", "h1_semi_u") in rep.rates
    assert rep.rates[(1, "SGFEM", "h1_semi_u")] == pytest.approx(1.0, abs=0.1)
    # unfitted standard FEM is polluted: clearly below first order
    assert rep.rates[(1, "FEM", "h1_semi_u")] < 0.85


def test_eigen_sweep_rates(small_eigen_report):
    rep = small_eigen_report
    assert rep.metadata["gamma"] == pytest.approx(1.0 / 3.0)
    assert rep.metadata["eta"] == 4.0
    r = rep.rates[(1, "SGFEM", "rel_lambda_1")]
    assert r == pytest.approx(2.0, abs=0.25)


def test_eigen_sweep_with_eigenfunctions():
    cfg = SweepConfig(problem="eigen", case="case2", degrees=(1,),
                      Ns=(10, 20), methods=("SGFEM",), eigen_indices=(1,),
                      outputs=("eigenfunctions",))
    rep = run_eigen_sweep(cfg)
    quantities = {r.quantity for r in rep.rows}
    assert quantities == {"rel_lambda_1", "h1_u1", "l2_u1"}


def test_validation_errors():
    with pytest.raises(InvalidArgumentError):
        SweepConfig(problem="bogus").validate()
    with pytest.raises(InvalidArgumentError):
        SweepConfig(Ns=(40, 10)).validate()
    with pytest.raises(InvalidArgumentError):
        SweepConfig(degrees=(0,)).validate()
    with pytest.raises(InvalidArgumentError):
        SweepConfig(methods=("XFEM",)).validate()
    with pytest.raises(InvalidArgumentError):
        run_source_sweep(SweepConfig(problem="eigen"))
    with pytest.raises(InvalidArgumentError):
        run_eigen_sweep(SweepConfig(problem="source"))
    # each of these but the first used to pass: a misspelt output wrote no
    # eigenfunction rows, and a repeated degree, method or N wrote its rows twice
    for fields, message in [({"eigen_indices": (0, 1)}, "eigen indices are 1-based"),
                            ({"outputs": ("eigenfunction",)}, "unknown outputs"),
                            ({"outputs": ("eigenfunctions", "plots")}, "unknown outputs"),
                            ({"degrees": (1, 2, 1)}, "degrees repeat"),
                            ({"methods": ("FEM", "FEM")}, "methods repeat"),
                            ({"eigen_indices": (1, 4, 4)}, "eigen_indices repeat"),
                            ({"Ns": (10, 10, 20)}, "strictly ascending"),
                            ({"Ns": (10, 20, 20)}, "strictly ascending")]:
        with pytest.raises(InvalidArgumentError, match=message):
            SweepConfig(problem="eigen", **fields).validate()


def test_close_exact_eigenvalues_are_rejected(monkeypatch):
    pairs = sweep.solve_matching_system(1.0 / 3.0, 4.0, 3)
    close = [pairs[0], dataclasses.replace(pairs[1], lam=1.005 * pairs[0].lam), pairs[2]]
    monkeypatch.setattr(sweep, "solve_matching_system", lambda gamma, eta, count: close)
    cfg = SweepConfig(problem="eigen", case="case2", degrees=(1,), Ns=(10,),
                      eigen_indices=(1,))
    with pytest.raises(EigenvalueMismatchError, match="1 and 2 closer than 1%"):
        run_eigen_sweep(cfg)
    cfg.eigen_indices = (2,)
    with pytest.raises(EigenvalueMismatchError, match="2 and 1 closer than 1%"):
        run_eigen_sweep(cfg)


def test_csv_round_trip(small_source_report):
    text = report_csv(small_source_report)
    rows = parse_csv(text)
    assert rows == small_source_report.rows


def test_csv_deterministic(small_source_report):
    cfg = SweepConfig(problem="source", degrees=(1,), Ns=(10, 20, 40),
                      methods=("FEM", "SGFEM"))
    again = run_source_sweep(cfg)
    assert report_csv(again) == report_csv(small_source_report)


def test_markdown_layout(small_source_report):
    md = report_markdown(small_source_report)
    assert "### h1_semi_u" in md
    assert "### l2_u" in md
    assert "| rate |" in md
    assert "FEM p=1" in md and "SGFEM p=1" in md


def test_scientific_notation_format():
    from sgfem1d.sweep import _sci
    assert _sci(4.92e-5) == "4.92E-5"
    assert _sci(1.0) == "1.00E+0"
    assert _sci(3.47e-13) == "3.47E-13"


def test_emit_report(tmp_path, small_source_report):
    out = tmp_path / "report.csv"
    emit_report(small_source_report, "csv", out)
    assert parse_csv(out.read_text()) == small_source_report.rows
    with pytest.raises(InvalidArgumentError):
        emit_report(small_source_report, "xml", tmp_path / "x")


def test_cond_sweep_monotone_growth():
    table, slope = run_cond_sweep(1, (10, 20, 40), gamma=1.0 / 3.0, eta=4.0)
    conds = [c for _, c in table]
    assert conds[0] < conds[1] < conds[2]
    assert slope == pytest.approx(2.0, abs=0.5)


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None, {})
    assert cfg.problem == "source"
    assert cfg.Ns == (10, 20, 40, 80, 160)

    path = tmp_path / "sweep.cfg"
    path.write_text("problem = eigen\ncase = case3\ndegrees = 1,2\n"
                    "ns = 10,20\nmethods = fem, sgfem\neigs = 1,4\n")
    cfg = load_config(str(path), {})
    assert cfg.problem == "eigen"
    assert cfg.case == "case3"
    assert cfg.degrees == (1, 2)
    assert cfg.Ns == (10, 20)
    assert cfg.methods == ("FEM", "SGFEM")
    assert cfg.eigen_indices == (1, 4)

    cfg = load_config(str(path), {"ns": "40,80"})
    assert cfg.Ns == (40, 80)


def test_load_config_with_section_header(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("[experiment]\nproblem = source\ndegrees = 2\n")
    cfg = load_config(str(path))
    assert cfg.degrees == (2,)


def test_load_config_reports_file_line_numbers(tmp_path):
    # the header added to a file without one used to shift them by one
    path = tmp_path / "bad.cfg"
    path.write_text("degrees 1\n")
    with pytest.raises(InvalidArgumentError, match=r"\[line  1\]: 'degrees 1"):
        load_config(str(path))
    path.write_text("[sweep]\nns = 10\nmethods\n")
    with pytest.raises(InvalidArgumentError, match=r"\[line  3\]: 'methods"):
        load_config(str(path))


def test_cond_sweep_fits_the_slope_once(monkeypatch):
    calls = []

    def counting_fit_rate(records):
        calls.append(len(records))
        return fit_rate(records)

    monkeypatch.setattr(sweep, "fit_rate", counting_fit_rate)
    run_cond_sweep(1, (10, 20, 40))
    assert calls == [3]


def test_load_config_rejects_invalid(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("problem = nonsense\n")
    with pytest.raises(InvalidArgumentError):
        load_config(str(path))


def test_load_config_rejects_unknown_case(tmp_path):
    # "cse3" used to run gamma=1/3, eta=4 as if no case were named
    path = tmp_path / "eigen.cfg"
    path.write_text("problem = eigen\ncase = cse3\n")
    with pytest.raises(InvalidArgumentError, match="cse3"):
        load_config(str(path))


def test_fitting_mesh_cells_recorded():
    # N divisible by 3 with gamma = 1/3 silently falls back to plain FEM
    cfg = SweepConfig(problem="source", degrees=(1,), Ns=(9, 12, 15),
                      methods=("SGFEM",))
    rep = run_source_sweep(cfg)
    assert rep.metadata["fitting_cells"] == [(1, 9), (1, 12), (1, 15)]
    # and the unenriched solve on a fitting mesh is still optimal-order
    assert rep.rates[(1, "SGFEM", "h1_semi_u")] == pytest.approx(1.0, abs=0.2)


def test_error_context_includes_grid_point():
    cfg = SweepConfig(problem="eigen", case="custom", gamma=0.5, eta=-1.0,
                      degrees=(1,), Ns=(10,), methods=("SGFEM",))
    with pytest.raises(InvalidArgumentError, match="eta"):
        run_eigen_sweep(cfg)


def test_cell_error_is_reraised_with_the_cell_attached(monkeypatch):
    # an exception whose constructor takes more than a message survives
    class CodedError(Exception):
        def __init__(self, msg, code):
            super().__init__(msg)
            self.code = code

    err = CodedError("solver gave up", 7)

    def fail(K, F):
        raise err

    monkeypatch.setattr(sweep, "solve_spd", fail)
    cfg = SweepConfig(problem="source", degrees=(2,), Ns=(10,), methods=("FEM",))
    with pytest.raises(CodedError) as info:
        run_source_sweep(cfg)
    assert info.value is err and info.value.code == 7
    assert info.value.__notes__ == ["(p=2, N=10, FEM)"]


@pytest.mark.parametrize("problem", ["source", "eigen"])
def test_sweep_memory_is_linear_in_ndof(problem):
    # p=3, N=4000: ndof 12003, so one dense K would take 1.15 GB
    run = run_source_sweep if problem == "source" else run_eigen_sweep
    extra = {"case": "case2", "outputs": ("eigenfunctions",)}
    cfg = SweepConfig(problem=problem, degrees=(3,), Ns=(4000,), methods=("SGFEM",),
                      **(extra if problem == "eigen" else {}))
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
