"""Command-line driver: single solves, experiment grids, table reports."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

from .basis import BASIS_KINDS
from .classic import hscg_attainable_accuracy
from .harness import (
    ALGORITHMS,
    ExperimentSpec,
    ResultRow,
    _run_cell,
    emit_summary_table,
    emit_trace_csv,
    round_up_2sig,
    run_grid,
    summary_cell,
)
from .matio import load_problem
from .ritz import C_STRATEGIES


def _solve(args):
    problem = load_problem(args.matrix)
    eps_star = args.eps_star
    if args.eps_star_mode == "hscg-attainable":
        eps_star = round_up_2sig(hscg_attainable_accuracy(problem, max_iters=args.max_iters))
        print(f"eps* (hscg attainable) = {eps_star:.2e}")
    trace = _run_cell(
        problem, args.alg, args.s, args.basis, args.c_strategy, eps_star,
        args.max_outer, args.max_iters, args.s_bar0, args.f,
    )
    print(f"{problem.label}: {trace.outcome}  cell={summary_cell(trace)}  "
          f"outer={trace.total_outer} total={trace.total_iters} "
          f"final_rel={trace.final_true_resid:.3e}")
    if args.trace_out:
        emit_trace_csv(trace, args.trace_out)
        print(f"trace written to {args.trace_out}")
    return 0


def _eps(tok):
    return tok if tok == "hscg-attainable" else float(tok)


# how a spec file sets each ExperimentSpec field; lists are comma-separated
_SPEC_LISTS = dict(matrices=str, algorithms=str, s_values=int, eps_modes=_eps, basis_kinds=str, c_strategies=str)
_SPEC_SCALARS = dict(max_outer=int, max_iters=int)


def _parse_spec_file(path):
    """Line-based key=value spec. Keys the file does not set keep their
    `ExperimentSpec` defaults; an unknown key raises ValueError naming it
    and its line."""
    fields = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad spec line {lineno}: {raw!r}")
            key, val = (t.strip() for t in line.split("=", 1))
            if key in _SPEC_LISTS:
                fields[key] = [_SPEC_LISTS[key](t.strip()) for t in val.split(",") if t.strip()]
            elif key in _SPEC_SCALARS:
                fields[key] = _SPEC_SCALARS[key](val)
            else:
                raise ValueError(f"unknown spec key {key!r} on line {lineno}")
    if not fields.get("matrices"):
        raise ValueError("spec file must set 'matrices'")
    return ExperimentSpec(**fields)


ROW_FIELDS = [f.name for f in dataclasses.fields(ResultRow)]


def _grid(args):
    spec = _parse_spec_file(args.spec)
    rows = run_grid(spec, args.out_dir)
    rows_path = f"{args.out_dir}/rows.csv"
    with open(rows_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(ROW_FIELDS)
        for r in rows:
            w.writerow([getattr(r, k) for k in ROW_FIELDS])
    print(f"{len(rows)} rows -> {rows_path}")
    return 0


def _report(args):
    # the field annotations are strings (postponed evaluation)
    convert = {"int": int, "float": float, "str": str}
    fields = dataclasses.fields(ResultRow)
    with open(args.rows, newline="") as f:
        rows = [
            ResultRow(**{fd.name: convert[fd.type](rec[fd.name]) for fd in fields if fd.name in rec})
            for rec in csv.DictReader(f)
        ]
    emit_summary_table(rows, args.format, args.out)
    print(f"table -> {args.out}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="sstepcg", description="s-step CG experiment driver")
    sub = ap.add_subparsers(dest="cmd", required=True)

    so = sub.add_parser("solve", help="run one solver on one matrix")
    so.add_argument("--matrix", required=True)
    so.add_argument("--alg", choices=ALGORITHMS, default="adaptive-improved")
    so.add_argument("--s", type=int, default=10)
    so.add_argument("--f", type=int, default=None)
    so.add_argument("--s-bar0", type=int, default=None)
    so.add_argument("--eps-star", type=float, default=1e-6)
    so.add_argument("--eps-star-mode", choices=["fixed", "hscg-attainable"], default="fixed")
    so.add_argument("--basis", choices=BASIS_KINDS, default="newton")
    so.add_argument(
        "--c-strategy", choices=C_STRATEGIES, default=None,
        help="default: the grid's, unit for adaptive-old and adaptive for adaptive-improved",
    )
    so.add_argument("--max-outer", type=int, default=5000)
    so.add_argument("--max-iters", type=int, default=None)
    so.add_argument("--trace-out", default=None)
    so.set_defaults(func=_solve)

    gr = sub.add_parser("grid", help="run an experiment grid from a spec file")
    gr.add_argument("--spec", required=True)
    gr.add_argument("--out-dir", required=True)
    gr.set_defaults(func=_grid)

    rp = sub.add_parser("report", help="format summary tables from grid rows")
    rp.add_argument("--rows", required=True)
    rp.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    rp.add_argument("--out", required=True)
    rp.set_defaults(func=_report)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
