"""Command-line driver: single solves, experiment grids, table reports."""

from __future__ import annotations

import argparse
import csv
import sys

from .adaptive import AdaptiveConfig, adaptive_solve, attained_accuracy_report
from .classic import hscg_attainable_accuracy, hscg_solve
from .harness import (
    ALGORITHMS,
    ExperimentSpec,
    ResultRow,
    emit_summary_table,
    emit_trace_csv,
    run_grid,
)
from .matio import load_problem
from .sstep import sstep_solve


def _solve(args):
    problem = load_problem(args.matrix)
    eps_star = args.eps_star
    if args.eps_star_mode == "hscg-attainable":
        from .harness import round_up_2sig

        eps_star = round_up_2sig(hscg_attainable_accuracy(problem))
        print(f"eps* (hscg attainable) = {eps_star:.2e}")
    if args.alg == "hscg":
        _, trace, _ = hscg_solve(problem, eps_star, max_iters=args.max_iters)
    elif args.alg == "sstep":
        _, trace, _ = sstep_solve(problem, args.s, eps_star, max_outer=args.max_outer)
    else:
        cfg = AdaptiveConfig(
            sigma=args.sigma or args.s,
            eps_star=eps_star,
            s_bar0=args.s_bar0,
            f=args.f,
            basis_kind=args.basis,
            c_strategy=args.c_strategy,
            variant="old" if args.alg == "adaptive-old" else "improved",
            max_outer=args.max_outer,
        )
        _, trace, _ = adaptive_solve(problem, cfg)
    report = attained_accuracy_report(trace)
    print(f"{problem.label}: {report.outcome}  cell={report.cell}  "
          f"outer={trace.total_outer} total={trace.total_iters} "
          f"final_rel={trace.final_true_resid:.3e}")
    if args.trace_out:
        emit_trace_csv(trace, args.trace_out)
        print(f"trace written to {args.trace_out}")
    return 0


def _parse_spec_file(path):
    """Line-based key=value spec; lists are comma-separated."""
    kv = {}
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad spec line: {raw!r}")
            key, val = (t.strip() for t in line.split("=", 1))
            kv[key] = val

    def _list(key, default, conv=str):
        if key not in kv:
            return default
        return [conv(t.strip()) for t in kv[key].split(",") if t.strip()]

    def _eps(tok):
        return tok if tok == "hscg-attainable" else float(tok)

    matrices = _list("matrices", None)
    if not matrices:
        raise ValueError("spec file must set 'matrices'")
    return ExperimentSpec(
        matrices=matrices,
        algorithms=_list("algorithms", list(ALGORITHMS)),
        s_values=_list("s_values", [5, 10, 15], int),
        eps_modes=_list("eps_modes", ["hscg-attainable", 1e-6], _eps),
        basis_kinds=_list("basis_kinds", ["newton", "chebyshev"]),
        c_strategies=_list("c_strategies", ["adaptive"]),
        max_outer=int(kv.get("max_outer", 5000)),
        max_iters=int(kv["max_iters"]) if "max_iters" in kv else None,
    )


ROW_FIELDS = [
    "matrix", "algorithm", "basis", "c_strategy", "s", "eps_star",
    "cell", "outcome", "total_iters", "total_outer", "final_true_resid", "trace_file",
]


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
    rows = []
    with open(args.rows, newline="") as f:
        for rec in csv.DictReader(f):
            rows.append(
                ResultRow(
                    matrix=rec["matrix"],
                    algorithm=rec["algorithm"],
                    basis=rec["basis"],
                    c_strategy=rec["c_strategy"],
                    s=int(rec["s"]),
                    eps_star=float(rec["eps_star"]),
                    cell=rec["cell"],
                    outcome=rec["outcome"],
                    total_iters=int(rec["total_iters"]),
                    total_outer=int(rec["total_outer"]),
                    final_true_resid=float(rec["final_true_resid"]),
                    trace_file=rec.get("trace_file", ""),
                )
            )
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
    so.add_argument("--sigma", type=int, default=None)
    so.add_argument("--f", type=int, default=None)
    so.add_argument("--s-bar0", type=int, default=None)
    so.add_argument("--eps-star", type=float, default=1e-6)
    so.add_argument("--eps-star-mode", choices=["fixed", "hscg-attainable"], default="fixed")
    so.add_argument("--basis", choices=["monomial", "newton", "chebyshev"], default="newton")
    so.add_argument("--c-strategy",
                    choices=["adaptive", "unit", "kappa-estimate", "full-bound"],
                    default="adaptive")
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
