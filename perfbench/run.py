"""sstepcg benchmark: time to solution and synchronizations per workload.

Run from the repository root:

    python3 perfbench/run.py --workload bundled-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end ones (set-up time, solve time, iterations, global reductions,
pass fraction, peak memory through set-up and the first pass). With
--trace 1 the run also repeats set-up and one solve pass with spans around
the library's public functions, checks that the traced pass computed
exactly what the untraced passes did, and reports per-layer metrics.
Details, the environment record and the spans are written
under perfbench/out/. See perfbench/WORKLOADS.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join("perfbench", "out")
REQUIRED = (
    os.path.join("src", "sstepcg", "__init__.py"),
    os.path.join("experiments", "reproduction_grid.spec"),
    os.path.join("data", "matrices"),
)
WORKLOADS = ("bundled-grid", "bundled-cstrat", "aniso3d")
MAX_BLAS_THREADS = 2

def _pin_blas_threads():
    """Cap BLAS threads at min(nproc, 2) for every BLAS numpy might load."""
    threads = str(min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name, seed, seconds, traced):
    """One benchmark run of one workload; returns the result record."""
    import sstepcg
    import workloads as wl_mod
    from environment import environment

    src = os.path.abspath(os.path.join("src", "sstepcg"))
    if os.path.dirname(os.path.abspath(sstepcg.__file__)) != src:
        raise RuntimeError(f"sstepcg imported from {sstepcg.__file__}, not {src}")

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        workload = wl_mod.build_workload(name, tmp)
        gate = wl_mod.ResidualGate(workload.matrices)
        def csv_dir(k):
            """A new directory per pass: rewriting files in place can wait on
            writeback (ext4 flushes truncated files on close), while
            `sstepcg grid` writes into a fresh output directory."""
            if not workload.write_csv:
                return None
            path = os.path.join(tmp, f"csv{k}")
            shutil.rmtree(os.path.join(tmp, f"csv{k - 1}"), ignore_errors=True)
            os.makedirs(path)
            return path

        setup_times = []
        for _ in range(workload.setup_repeats):
            problems = None  # one problem set alive at a time
            gc.collect()
            t0 = time.perf_counter()
            problems = wl_mod.load_all(workload)
            setup_times.append(time.perf_counter() - t0)
        setup_rss_mb = _peak_rss_mb()

        def order_seed(k):
            """Pass 0 runs the cells in canonical order, so the peak memory it
            sets is the same for every seed: which cell follows which changes
            heap fragmentation, and with it the peak (see WORKLOADS.md)."""
            return None if k == 0 else seed * 1000 + k

        checker = Checker(workload, gate)
        pass_times = []
        start = time.perf_counter()
        while len(pass_times) < 2 or time.perf_counter() - start < seconds:
            out = csv_dir(len(pass_times))
            gc.collect()
            t0 = time.perf_counter()
            floors, runs = wl_mod.solve_pass(workload, problems, order_seed(len(pass_times)), out)
            pass_times.append(time.perf_counter() - t0)
            if len(pass_times) == 1:
                peak_rss_mb = _peak_rss_mb()
            checker.add_pass(floors, runs, f"pass {len(pass_times)}")
            del floors, runs  # keep one pass's vectors alive at a time

        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(traced),
            "cell_order_seeds": [order_seed(k) for k in range(len(pass_times))],
            "setup_times_s": setup_times,
            "pass_times_s": pass_times,
            "peak_rss_mb_after_setup": setup_rss_mb,
            "peak_rss_mb_after_first_pass": peak_rss_mb,
            "peak_rss_mb_after_passes": _peak_rss_mb(),
            "env": environment(workload, problems),
        }
        if traced:
            record["per_layer"], record["spans_file"] = traced_run(
                workload, gate, checker, csv_dir(len(pass_times)), seed, statistics.median(pass_times)
            )
        else:
            record["end_to_end"] = {
                "setup_s": statistics.median(setup_times),
                "solve_s": statistics.median(pass_times),
                "iterations": checker.iterations,
                "reductions": checker.reductions,
                "pass_frac": checker.passed / checker.attempted,
                "peak_rss_mb": peak_rss_mb,
            }
        record.update(checker.report())
        record["cells"] = checker.cell_table()
        return record
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


class Checker:
    """Collects every pass's per-cell outcomes and the correctness verdict.

    The first untraced pass is the reference: later passes must reproduce
    its digests (x and the trace columns), iterations and reductions, and
    its HSCG floors. A cell run is failed when its output is wrong: the
    residual gate rejects it, its digest moved, or an algorithm that must
    converge did not. A cell run passes when it converged and did not fail.
    """

    def __init__(self, workload, gate):
        self.workload = workload
        self.gate = gate
        self.reference = None
        self.attempted = self.failed = self.passed = 0
        self.problems = []

    def summarize(self, floors, runs):
        return {
            "floors": floors,
            "digests": [r.digest() for r in runs],
            "converged": [r.trace.converged for r in runs],
            "iterations": [r.iterations for r in runs],
            "reductions": [r.reductions for r in runs],
            "gate": [self.gate.check(r) for r in runs],
        }

    def add_pass(self, floors, runs, what):
        s = self.summarize(floors, runs)
        if self.reference is None:
            self.reference = s
        ref = self.reference
        if s["floors"] != ref["floors"]:
            self.problems.append(f"{what}: HSCG floors {s['floors']} != {ref['floors']}")
        for i, cell in enumerate(self.workload.cells):
            wrong = list(s["gate"][i])
            if s["digests"][i] != ref["digests"][i]:
                wrong.append(f"digest {s['digests'][i]} != first pass {ref['digests'][i]}")
            self.attempted += 1
            if wrong:
                self.failed += 1
                self.problems.append(f"{what}: {cell.tag}: " + "; ".join(wrong))
            elif s["converged"][i]:
                self.passed += 1
        return s

    @property
    def iterations(self):
        return sum(self.reference["iterations"])

    @property
    def reductions(self):
        return sum(self.reference["reductions"])

    def report(self):
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
        }

    def cell_table(self):
        ref = self.reference
        return [
            {
                "cell": cell.tag,
                "converged": ref["converged"][i],
                "iterations": ref["iterations"][i],
                "reductions": ref["reductions"][i],
                "digest": ref["digests"][i],
            }
            for i, cell in enumerate(self.workload.cells)
        ]


def traced_run(workload, gate, checker, csv_dir, seed, untraced_solve_s):
    """Set up and solve once more with spans on, check it matches, and
    reduce the spans to per-layer metrics."""
    import workloads as wl_mod
    from tracer import SpanSummary, Tracer

    tracer = Tracer()
    with tracer.instrument():
        problems = wl_mod.load_all(workload, tracer)
        t0 = time.perf_counter()
        floors, runs = wl_mod.solve_pass(workload, problems, seed * 1000, csv_dir, tracer)
        traced_solve_s = time.perf_counter() - t0
    traced = checker.add_pass(floors, runs, "traced pass")

    setup = SpanSummary(tracer.spans, lambda req: req == "bench.load")
    solve = SpanSummary(tracer.spans, lambda req: req in ("bench.cell", "bench.floor"))
    blocked_reductions = sum(r.reductions for r in runs if r.cell.alg != "hscg")
    if solve.calls["lacore.gram"] != blocked_reductions:
        checker.problems.append(
            f"traced pass: lacore.gram calls {solve.calls['lacore.gram']} != "
            f"blocked reductions {blocked_reductions}"
        )
    if sum(traced["iterations"]) != checker.iterations or sum(traced["reductions"]) != checker.reductions:
        checker.problems.append("traced pass: iterations or reductions differ from the untraced passes")

    estimates = tracer.results["matio.estimate_operator_norms"]
    kappa_ratios = []
    for label, problem in problems.items():
        gen = (workload.generated or {}).get(label)
        exact = gen.kappa() if gen is not None else gate.exact_kappa(label)
        kappa_ratios.append(problem.kappa_a / exact)

    blocks = [bs for r in runs for bs in r.block_sizes()]
    outer = [rec for r in runs if r.cell.alg.startswith("adaptive") for rec in r.trace.outer_records]
    csv_paths = tracer.results["harness.emit_trace_csv"]
    spmv_s = solve.total_s["csr.matmul"]

    m = {
        "matio.read_s": setup.total_s["matio.read_matrix_market"],
        "matio.precond_s": setup.total_s["matio.jacobi_precondition"],
        "matio.norms_s": setup.total_s["matio.estimate_operator_norms"],
        "matio.norm_iters": sum(e.iters_used for e in estimates),
        "matio.norms_converged": sum(e.converged for e in estimates) / len(estimates),
        "matio.kappa_ratio": min(kappa_ratios),
        "lacore.spmv_calls": solve.calls["csr.matmul"],
        "lacore.spmv_s": spmv_s,
        "lacore.spmv_bytes": solve.bytes["csr.matmul"],
        "lacore.spmv_gbs": solve.bytes["csr.matmul"] / spmv_s / 1e9,
        "lacore.gram_calls": solve.calls["lacore.gram"],
        "lacore.gram_s": solve.total_s["lacore.gram"],
        "lacore.cond_calls": solve.calls["lacore.nested_basis_conds"] + solve.calls["lacore.gram_cond_estimate"],
        "lacore.cond_s": solve.total_s["lacore.nested_basis_conds"] + solve.total_s["lacore.gram_cond_estimate"],
        "lacore.sym_eig_calls": solve.calls["lacore.sym_eig"],
        "lacore.sym_eig_s": solve.total_s["lacore.sym_eig"],
        "ritz.abs_norm_s": solve.total_s["ritz.abs_matrix_norm"],
        "basis.block_calls": solve.calls["basis.build_block"],
        "basis.block_s": solve.self_s["basis.build_block"],
        "basis.cols_used_frac": sum(2 * s + 1 for _, s in blocks) / sum(2 * s + 1 for s, _ in blocks),
        "basis.params_calls": solve.calls["basis.params_for"],
        "basis.params_s": solve.total_s["basis.params_for"],
        "basis.leja_calls": solve.calls["basis.leja_points"],
        "basis.leja_s": solve.total_s["basis.leja_points"],
        "ritz.absorb_calls": solve.calls["ritz.absorb_step"],
        "ritz.absorb_s": solve.total_s["ritz.absorb_step"],
        "ritz.breakdowns": solve.errors[("ritz.absorb_step", "BreakdownSignal")],
        "ritz.c_calls": solve.calls["ritz.c_strategy"],
        "ritz.c_s": solve.total_s["ritz.c_strategy"],
        "classic.hscg_s": solve.self_s["classic.hscg_solve"],
        "classic.floor_s": solve.total_s["classic.hscg_attainable_accuracy"],
        "sstep.solve_s": solve.self_s["sstep.sstep_solve"],
        "sstep.recover_calls": solve.calls["sstep.recover_iterates"],
        "sstep.recover_s": solve.total_s["sstep.recover_iterates"],
        "adaptive.solve_s": solve.self_s["adaptive.adaptive_solve"],
        "adaptive.select_calls": solve.calls["adaptive.select_s_tilde"],
        "adaptive.select_s": solve.total_s["adaptive.select_s_tilde"],
        "adaptive.mean_block": sum(rec.s_actual for rec in outer) / len(outer),
        "adaptive.truncated_frac": sum(rec.s_tilde < rec.s_bar for rec in outer) / len(outer),
        "adaptive.break_frac": sum(rec.break_j is not None for rec in outer) / len(outer),
        "harness.csv_s": solve.total_s["harness.emit_trace_csv"],
        "harness.csv_bytes": sum(os.path.getsize(p) for p in csv_paths),
        "trace.overhead_s": traced_solve_s - untraced_solve_s,
    }
    spans_file = tracer.write(os.path.join(OUT_DIR, f"{workload.name}-seed{seed}-spans.csv.gz"))
    return m, spans_file


def result_line(record):
    """The result JSON: BENCHMARK.json's per-layer metrics when traced, else its end-to-end ones."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)[kind]}
    values = record[kind]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def run_one(args):
    sys.path[:0] = [os.path.abspath("src"), HERE]
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, default=str)
    line = result_line(record)
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for k, v in line["metrics"].items():
        print(f"{args.workload:15s} {k:24s} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args):
    """Each workload in its own process (so peak memory is its own), one table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 and not lines:
            raise RuntimeError(f"{name} exited with {proc.returncode}")
        line = json.loads(lines[-1])
        total["correct"] = total["correct"] and line["correct"] and proc.returncode == 0
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
