import csv
import os

import numpy as np
import pytest

from conftest import require_matrix
from sstepcg.adaptive import AdaptiveConfig, adaptive_solve
from sstepcg.sstep import sstep_solve
from sstepcg.classic import hscg_solve
from sstepcg import cli
from sstepcg.cli import main as cli_main
from sstepcg.harness import (
    TRACE_HEADER,
    ExperimentSpec,
    ResultRow,
    emit_summary_table,
    emit_trace_csv,
    round_up_2sig,
    run_grid,
    summary_cell,
)
from sstepcg.matio import load_problem
from sstepcg.trace import SolveTrace


REPRODUCTION_SPEC = os.path.join(os.path.dirname(__file__), "..", "experiments", "reproduction_grid.spec")


def _identity_mm(tmp_path, n=10):
    path = tmp_path / f"identity{n}.mtx"
    lines = [f"{i} {i} 1.0" for i in range(1, n + 1)]
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        + f"{n} {n} {n}\n"
        + "\n".join(lines)
        + "\n"
    )
    return str(path)


class TestRoundUp2Sig:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (2.085e-11, 2.1e-11),
            (1.86e-12, 1.9e-12),
            (9.99e-7, 1.0e-6),
            (3.5e-14, 3.5e-14),
            # exact two-digit values stay put
            (1e-10, 1e-10),
            (1.1e-11, 1.1e-11),
            (1.3e-06, 1.3e-06),
        ],
    )
    def test_values(self, x, expected):
        assert round_up_2sig(x) == pytest.approx(expected, rel=1e-12)

    def test_exact_two_digit_values_are_fixed_points(self):
        for exp in range(-17, -5):
            for m in range(10, 100):
                x = float(f"{m / 10}e{exp}")
                assert round_up_2sig(x) == pytest.approx(x, rel=1e-12), x


class TestSummaryCell:
    def test_converged_cell(self):
        t = SolveTrace(converged=True, s_schedule=[5] * 10, true_resid=[1e-7] * 50)
        assert t.outcome == "converged"
        assert summary_cell(t) == "10 (50)"

    def test_stagnated_cell(self):
        t = SolveTrace(stagnated=True, s_schedule=[3], true_resid=[1.0, 3.1e-8, 5e-8])
        assert t.outcome == "stagnated"
        assert summary_cell(t) == "– [3.1e-08]"

    def test_diverged_cell(self):
        t = SolveTrace(diverged=True, s_schedule=[1, 1], true_resid=[1.0, 10.0])
        assert t.outcome == "diverged"
        assert summary_cell(t) == "–"


class TestExperimentSpec:
    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("algorithms", ["cg"], "algorithm"),
            ("s_values", [0], "s values"),
            ("eps_modes", [-1.0], "eps mode"),
            ("eps_modes", [float("nan")], "eps mode"),
            ("eps_modes", [float("inf")], "eps mode"),
            ("eps_modes", ["attainable"], "eps mode"),
            ("basis_kinds", ["newtn"], "basis kind"),
            ("c_strategies", ["bogus"], "c strategy"),
            ("max_outer", 0, "max_outer"),
            ("max_iters", 0, "max_iters"),
        ],
    )
    def test_rejects_bad_field(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            ExperimentSpec(matrices=["a.mtx"], **{field: value})


class TestRunGrid:
    def test_identity_single_cell(self, tmp_path):
        mm = _identity_mm(tmp_path)
        spec = ExperimentSpec(matrices=[mm], algorithms=["hscg"], eps_modes=[1e-6])
        rows = run_grid(spec, str(tmp_path / "out"))
        assert len(rows) == 1
        row = rows[0]
        assert row.outcome == "converged"
        assert row.cell == "1 (1)"
        assert os.path.exists(row.trace_file)

    def test_cell_count_and_determinism(self, tmp_path):
        mm = _identity_mm(tmp_path)
        spec = ExperimentSpec(
            matrices=[mm],
            algorithms=["hscg", "sstep", "adaptive-improved"],
            s_values=[2, 3],
            eps_modes=[1e-8],
            basis_kinds=["newton"],
            c_strategies=["adaptive"],
        )
        rows1 = run_grid(spec, str(tmp_path / "o1"))
        rows2 = run_grid(spec, str(tmp_path / "o2"))
        # 1 hscg + 2 sstep + 2 adaptive cells
        assert len(rows1) == 5
        assert [r.cell for r in rows1] == [r.cell for r in rows2]
        for r1, r2 in zip(rows1, rows2):
            with open(r1.trace_file, "rb") as f1, open(r2.trace_file, "rb") as f2:
                assert f1.read() == f2.read()

    def test_outer_counts_match_trace(self, tmp_path):
        mm = _identity_mm(tmp_path, n=6)
        spec = ExperimentSpec(
            matrices=[mm],
            algorithms=["adaptive-improved"],
            s_values=[2],
            eps_modes=[1e-9],
            basis_kinds=["chebyshev"],
        )
        rows = run_grid(spec, str(tmp_path / "out"))
        for row in rows:
            with open(row.trace_file) as f:
                lines = f.read().strip().splitlines()
            assert len(lines) - 1 == row.total_iters
            outer_ids = {int(line.split(",")[1]) for line in lines[1:]}
            assert len(outer_ids) == row.total_outer


def reference_trace_csv(trace):
    """The line-at-a-time trace formatter, kept as the reference for the
    byte layout of emit_trace_csv."""
    outer_of = np.zeros(trace.total_iters, dtype=int)
    s_of = np.zeros(trace.total_iters, dtype=int)
    for outer, (start, s_k) in enumerate(zip(trace.outer_marks, trace.s_schedule)):
        end = (
            trace.outer_marks[outer + 1]
            if outer + 1 < len(trace.outer_marks)
            else trace.total_iters
        )
        outer_of[start:end] = outer
        s_of[start:end] = s_k
    out = [TRACE_HEADER + "\n"]
    for i in range(trace.total_iters):
        out.append(
            f"{i + 1},{outer_of[i] + 1},{s_of[i]},"
            f"{trace.true_resid[i]:.17g},{trace.upd_resid[i]:.17g},"
            f"{trace.resid_gap[i]:.17g},{trace.lambda_min[i]:.17g},"
            f"{trace.lambda_max[i]:.17g},{trace.c_values[i]:.17g}\n"
        )
    return "".join(out)


class TestEmitTraceCsv:
    def test_bytes_equal_reference_formatter(self, tmp_path):
        special = [1.0, 1 / 3, 1e-300, 5e-324, -0.0, 0.1, np.inf, -np.inf, np.nan, 2.0**60, -1.5e-17]
        trace = SolveTrace()
        i = 0
        # iterations per outer loop: the last records none, as in a run
        # that breaks down at its first step
        for iters in (3, 1, 4, 2, 0):
            trace.s_schedule.append(iters)
            for _ in range(iters):
                trace.record_iteration(*[special[(i + j) % len(special)] for j in range(7)])
                i += 1
        path = tmp_path / "special.csv"
        emit_trace_csv(trace, str(path))
        assert path.read_bytes() == reference_trace_csv(trace).encode()

    def test_solver_trace_bytes_equal_reference_formatter(self, bus494_problem, tmp_path):
        traces = {
            "hscg": hscg_solve(bus494_problem, 1e-6)[1],
            "sstep": sstep_solve(bus494_problem, 5, 1e-6)[1],
        }
        for variant in ("old", "improved"):
            cfg = AdaptiveConfig(sigma=5, eps_star=1e-6, basis_kind="newton", variant=variant)
            traces[f"adaptive-{variant}"] = adaptive_solve(bus494_problem, cfg)[1]
        for alg, trace in traces.items():
            path = tmp_path / f"bus_{alg}.csv"
            emit_trace_csv(trace, str(path))
            assert path.read_bytes() == reference_trace_csv(trace).encode(), alg

    def test_identity_two_line_file(self, tmp_path):
        prob = load_problem(_identity_mm(tmp_path), label="id")
        _, trace, _ = hscg_solve(prob, 1e-9)
        path = str(tmp_path / "t.csv")
        emit_trace_csv(trace, path)
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("global_iter,outer_iter,s_k,rel_true_resid")

    def test_row_count_matches_iterations(self, bus494_problem, tmp_path):
        cfg = AdaptiveConfig(sigma=5, eps_star=1e-6, basis_kind="newton")
        _, trace, _ = adaptive_solve(bus494_problem, cfg)
        path = str(tmp_path / "rowcount.csv")
        emit_trace_csv(trace, path)
        lines = open(path).read().strip().splitlines()
        assert len(lines) - 1 == trace.total_iters

    def test_c_column_within_bounds_nos1(self, nos1_problem, tmp_path):
        cfg = AdaptiveConfig(sigma=10, eps_star=1e-6, basis_kind="chebyshev")
        _, trace, _ = adaptive_solve(nos1_problem, cfg)
        path = str(tmp_path / "nos1.csv")
        emit_trace_csv(trace, path)
        rows = [line.split(",") for line in open(path).read().strip().splitlines()[1:]]
        cvals = np.array([float(r[8]) for r in rows])
        assert np.all(cvals >= 1.0)
        assert np.all(cvals <= nos1_problem.kappa_a * 1.01)


class TestEmitSummaryTable:
    def _rows(self):
        return [
            ResultRow("m1", "adaptive-improved", "newton", "adaptive", 10, 1e-6,
                      "134 (1328)", "converged", 1328, 134, 9e-7),
            ResultRow("m1", "adaptive-improved", "newton", "adaptive", 15, 1e-6,
                      "– [3.1e-08]", "stagnated", 900, 80, 3.1e-8),
            ResultRow("m1", "sstep", "monomial", "", 10, 1e-6,
                      "–", "diverged", 50, 5, 2e3),
        ]

    def test_cell_formats_byte_exact(self, tmp_path):
        path = str(tmp_path / "table.md")
        emit_summary_table(self._rows(), "markdown", path)
        content = open(path, encoding="utf-8").read()
        assert "134 (1328)" in content
        assert "– [3.1e-08]" in content
        assert "| – |" in content

    def test_csv_format(self, tmp_path):
        path = str(tmp_path / "table.csv")
        emit_summary_table(self._rows(), "csv", path)
        content = open(path, encoding="utf-8").read()
        assert '"134 (1328)"' in content

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_summary_table([], "markdown", str(tmp_path / "x.md"))

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_summary_table(self._rows(), "html", str(tmp_path / "x.html"))


class TestCli:
    def test_solve_subcommand(self, tmp_path, capsys):
        mm = _identity_mm(tmp_path)
        rc = cli_main(["solve", "--matrix", mm, "--alg", "hscg", "--eps-star", "1e-8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out

    def test_grid_and_report_subcommands(self, tmp_path, capsys):
        mm = _identity_mm(tmp_path)
        spec_file = tmp_path / "grid.spec"
        spec_file.write_text(
            f"matrices = {mm}\n"
            "algorithms = hscg, adaptive-improved\n"
            "s_values = 2\n"
            "eps_modes = 1e-8\n"
            "basis_kinds = newton\n"
            "c_strategies = adaptive\n"
        )
        out_dir = str(tmp_path / "gridout")
        rc = cli_main(["grid", "--spec", str(spec_file), "--out-dir", out_dir])
        assert rc == 0
        rows_csv = os.path.join(out_dir, "rows.csv")
        assert os.path.exists(rows_csv)
        table = str(tmp_path / "summary.md")
        rc = cli_main(["report", "--rows", rows_csv, "--format", "markdown", "--out", table])
        assert rc == 0
        assert os.path.exists(table)

    def test_attainable_mode_passes_iteration_budget(self, tmp_path, monkeypatch, capsys):
        # the HSCG floor of --eps-star-mode hscg-attainable runs under the
        # same --max-iters budget as the solve, as run_grid does with
        # the spec's max_iters
        mm = _identity_mm(tmp_path)
        budgets = []
        floor = cli.hscg_attainable_accuracy

        def spy(problem, max_iters=None):
            budgets.append(max_iters)
            return floor(problem, max_iters=max_iters)

        monkeypatch.setattr(cli, "hscg_attainable_accuracy", spy)
        argv = ["solve", "--matrix", mm, "--alg", "hscg", "--eps-star-mode", "hscg-attainable"]
        assert cli_main(argv + ["--max-iters", "3"]) == 0
        assert cli_main(argv) == 0
        assert budgets == [3, None]
        assert "eps* (hscg attainable)" in capsys.readouterr().out

    @pytest.mark.parametrize("alg", ["adaptive-old", "adaptive-improved"])
    def test_solve_without_c_strategy_runs_the_grid_cell(self, alg, tmp_path, capsys):
        # without --c-strategy, `sstepcg solve` runs the grid's cell for alg:
        # unit c for adaptive-old, adaptive c for adaptive-improved
        mm = require_matrix("nos1")
        spec = ExperimentSpec(
            matrices=[mm], algorithms=[alg], s_values=[10], eps_modes=[1e-6], basis_kinds=["newton"]
        )
        (row,) = run_grid(spec, str(tmp_path / "grid"))
        trace_out = str(tmp_path / "solve.csv")
        argv = ["solve", "--matrix", mm, "--alg", alg, "--s", "10", "--eps-star", "1e-6", "--trace-out", trace_out]
        assert cli_main(argv) == 0
        assert f"cell={row.cell} " in capsys.readouterr().out
        with open(trace_out) as got, open(row.trace_file) as want:
            assert got.read() == want.read()

    def test_error_exit_code(self, capsys):
        rc = cli_main(["solve", "--matrix", "/nonexistent.mtx", "--alg", "hscg"])
        assert rc == 1

    def test_sigma_alias_removed(self, tmp_path):
        mm = _identity_mm(tmp_path)
        with pytest.raises(SystemExit):
            cli_main(["solve", "--matrix", mm, "--sigma", "4"])
        assert cli_main(["solve", "--matrix", mm, "--s", "4", "--eps-star", "1e-8"]) == 0

    def test_report_reads_rows_back(self, tmp_path, monkeypatch):
        rows = [
            ResultRow("m", "hscg", "", "", 0, 1e-6, "7 (7)", "converged", 7, 7, 3.25e-7, "t.csv"),
            ResultRow("m", "sstep", "monomial", "", 5, 2.5e-10, "–", "diverged", 0, 0, 0.1),
        ]
        rows_csv = tmp_path / "rows.csv"
        with open(rows_csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(cli.ROW_FIELDS)
            w.writerows([getattr(r, k) for k in cli.ROW_FIELDS] for r in rows)
        seen = []
        monkeypatch.setattr(cli, "emit_summary_table", lambda rs, fmt, out: seen.extend(rs))
        assert cli_main(["report", "--rows", str(rows_csv), "--out", str(tmp_path / "t.md")]) == 0
        assert seen == rows


class TestSpecFile:
    def test_reproduction_grid(self):
        matrices = [f"data/matrices/{m}.mtx" for m in ("494_bus", "gr_30_30", "nos6", "nos1")]
        assert cli._parse_spec_file(REPRODUCTION_SPEC) == ExperimentSpec(
            matrices=matrices,
            algorithms=["hscg", "sstep", "adaptive-old", "adaptive-improved"],
            s_values=[5, 10, 15],
            eps_modes=["hscg-attainable", 1e-6],
            basis_kinds=["newton", "chebyshev"],
            c_strategies=["adaptive"],
            max_outer=5000,
            max_iters=None,
        )

    def test_unset_keys_keep_spec_defaults(self, tmp_path):
        spec_file = tmp_path / "grid.spec"
        spec_file.write_text("# only matrices\nmatrices = a.mtx, b.mtx\n")
        assert cli._parse_spec_file(spec_file) == ExperimentSpec(matrices=["a.mtx", "b.mtx"])
        spec_file.write_text("matrices = a.mtx\ns_values = 3\neps_modes = 1e-8\nmax_iters = 40\n")
        spec = cli._parse_spec_file(spec_file)
        assert (spec.s_values, spec.eps_modes, spec.max_iters) == ([3], [1e-8], 40)

    def test_nos1_quick(self):
        path = os.path.join(os.path.dirname(REPRODUCTION_SPEC), "nos1_quick.spec")
        assert cli._parse_spec_file(path) == ExperimentSpec(
            matrices=["data/matrices/nos1.mtx"],
            algorithms=["hscg", "adaptive-improved"],
            s_values=[10],
            eps_modes=[1e-6],
            basis_kinds=["newton", "chebyshev"],
            c_strategies=["adaptive"],
        )

    @pytest.mark.parametrize("line", ["c_strategy = full-bound", "s_value = 3"])
    def test_rejects_unknown_key(self, tmp_path, line):
        spec_file = tmp_path / "grid.spec"
        spec_file.write_text(f"# a typo'd key\nmatrices = a.mtx\n{line}\n")
        key = line.split("=")[0].strip()
        with pytest.raises(ValueError, match=f"'{key}' on line 3"):
            cli._parse_spec_file(spec_file)

    def test_rejects_missing_matrices(self, tmp_path):
        spec_file = tmp_path / "grid.spec"
        spec_file.write_text("s_values = 3\n")
        with pytest.raises(ValueError, match="matrices"):
            cli._parse_spec_file(spec_file)
