"""Run one workload in this process and print its result as JSON.

Started by ``run.py``, one process per workload, so that peak memory and
warm-up stay per workload.  Untraced runs (``--trace 0``) report the
end-to-end metrics; traced runs (``--trace 1``) run one fixed batch of
operations, each once untraced and once under the tracer, and report
per-layer metrics averaged per operation.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

import cartanarea  # noqa: E402
from cartanarea import extremal, frames, gram, grassmann, lagrangian  # noqa: E402
from cartanarea import variation as va  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

if not os.path.abspath(cartanarea.__file__).startswith(SRC + os.sep):
    sys.exit(f"error: imported cartanarea from {cartanarea.__file__}, not from {SRC}")

IMPORT_S = time.perf_counter() - T_START
SETUP_REPS = 3
# Rounds in one traced run: a fixed batch, so per-layer counts repeat exactly.
TRACE_ROUNDS = {"oracle-box": 1, "oracle-pullback": 1, "solve-large": 1, "pointwise": 64}
OUT_DIR = os.path.join(ROOT, ".bench_out")


def versions():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def attempt(wl, op, wrap=workloads.identity):
    """Run one operation; an exception is the operation's (failed) output."""
    try:
        return wl.run(op, wrap)
    except Exception as exc:  # a failed op is counted, never fatal
        return exc


def verdict(wl, op, out):
    if isinstance(out, Exception):
        return "raised " + "".join(traceback.format_exception_only(out)).strip()
    return wl.check(op, out)


def record(wl, op, out):
    if isinstance(out, Exception):
        return ("raised", type(out).__name__, str(out))
    return wl.record(op, out)


class Tally:
    """Checked operations: attempted, failed, and failed other than by a known defect."""

    def __init__(self):
        self.attempted = self.failed = self.unexpected = 0
        self.reasons = []

    def add(self, wl, op, out):
        self.attempted += 1
        why = verdict(wl, op, out)
        if why is None:
            return
        self.failed += 1
        self.unexpected += not op.known_defect
        if len(self.reasons) < 20:
            self.reasons.append(f"{op.kind}: {why}")

    def info(self):
        return {
            "failed_frac": self.failed / self.attempted,
            "unexpected_failures": self.unexpected,
            "failures": self.reasons,
        }


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_timed(name, seed, seconds, size_name):
    size = workloads.SIZES[size_name]
    reps = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        wl = workloads.WORKLOADS[name](seed, size)
        reps.append(time.perf_counter() - t)
    setup_s = IMPORT_S + statistics.median(reps)
    tally, times, check_s = Tally(), [], 0.0
    perf = time.perf_counter
    t0 = perf()
    deadline = t0 + seconds
    i = 0
    while True:
        for op in wl.round(i):
            ts = perf()
            out = attempt(wl, op)
            te = perf()
            times.append(te - ts)
            tally.add(wl, op, out)
            check_s += perf() - te
        i += 1
        if perf() >= deadline:
            break
    # The checker runs between operations; its time is not the program's.
    busy = perf() - t0 - check_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(times)
    p99 = np.percentile(times, 99)
    info = {
        "workload": name,
        "seed": seed,
        "rounds": i,
        "ops": n,
        "op_s_samples": n,
        "op_s_p99_samples_beyond": int(np.count_nonzero(np.array(times) > p99)),
        "check_s": check_s,
        **tally.info(),
        "import_s": IMPORT_S,
        "setup_reps_s": reps,
        "versions": versions(),
    }
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "op_s_p50": metric(np.median(times), "s"),
        "op_s_p99": metric(p99, "s"),
        "ops_per_s": metric(n / busy, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    result = {"correct": tally.unexpected == 0, "attempted": n, "failed": tally.failed, "metrics": metrics}
    return info, result


def install(tracer, seen):
    """Wrap each layer at the names its callers look it up under.

    ``seen`` holds the inputs of earlier solves, to count repeated ones.
    """

    def solve_key(args, kwargs):
        L, data, domain, resolution = args[:4]
        domain = tuple((float(lo), float(hi)) for lo, hi in domain)
        if np.isscalar(resolution):
            resolution = (int(resolution),) * L.p
        resolution = tuple(int(r) for r in resolution)
        mask = extremal.boundary_mask(resolution)
        if callable(data):
            axes = extremal.grid_axes(domain, resolution)
            ring = np.array(
                [
                    np.broadcast_to(
                        np.asarray(data(np.array([axes[k][idx[k]] for k in range(L.p)])), dtype=float),
                        (L.codim,),
                    )
                    for idx in np.argwhere(mask)
                ]
            )
        else:
            ring = np.asarray(data, dtype=float).reshape(*resolution, -1)[mask]
        key = (L.name, domain, resolution, ring.tobytes())
        tracer.count("extremal.repeat_solves", float(key in seen))
        seen.add(key)

    def solve_done(graph):
        tracer.count("extremal.newton_iters", graph.info["iterations"])
        tracer.count("extremal.descent_rounds", graph.info["descent_rounds"])

    def report_done(rep):
        tracer.count("variation.halvings", rep.diagnostics["halvings"])

    def rows_done(rows):
        for row in rows:
            if row.report is not None:
                report_done(row.report)

    solve = dict(before=solve_key, after=solve_done)
    for module, attr, name, hooks in (
        (va, "first_variation_fd", "variation.refit", dict(after=report_done)),
        (va, "normality_scan", "variation.refit", dict(after=rows_done)),
        (va, "first_variation_boundary", "variation.formula", {}),
        (va, "solve_dirichlet", "extremal.solve", solve),
        (extremal, "solve_dirichlet", "extremal.solve", solve),
        (va, "action", "extremal.action", {}),
        (scipy.sparse.linalg, "spsolve", "extremal.spsolve", {}),
        (va, "cartan_frame", "frames.cartan_frame", {}),
        (frames, "cartan_frame", "frames.cartan_frame", {}),
        (frames, "boundary_residual_of_field", "frames.residual", {}),
        (va, "grad_q", "lagrangian.grad_q", {}),
        (frames, "grad_q", "lagrangian.grad_q", {}),
        (lagrangian, "grad_q", "lagrangian.grad_q", {}),
        (frames, "grad_xi", "lagrangian.grad_xi", {}),
        (gram, "volume", "gram.volume", {}),
        (grassmann, "graph_tangent_basis", "grassmann.chart", {}),
        (grassmann, "slopes_from_basis", "grassmann.chart", {}),
    ):
        tracer.patch(module, attr, name, **hooks)


# (metric, unit, how, span or counter): the number of calls of a span, the
# sum of its self times or total times, or an operation counter.
LAYER_METRICS = (
    ("variation.field_evals", "count", "calls", "variation.field"),
    ("variation.field_s", "s", "total", "variation.field"),
    ("variation.refit_self_s", "s", "self", "variation.refit"),
    ("variation.formula_s", "s", "self", "variation.formula"),
    ("variation.halvings", "count", "counter", "variation.halvings"),
    ("frames.cartan_frame_calls", "count", "calls", "frames.cartan_frame"),
    ("frames.cartan_frame_s", "s", "self", "frames.cartan_frame"),
    ("frames.residual_s", "s", "self", "frames.residual"),
    ("lagrangian.grad_q_calls", "count", "calls", "lagrangian.grad_q"),
    ("lagrangian.grad_q_s", "s", "self", "lagrangian.grad_q"),
    ("lagrangian.grad_xi_s", "s", "self", "lagrangian.grad_xi"),
    ("extremal.solves", "count", "calls", "extremal.solve"),
    ("extremal.newton_iters", "count", "counter", "extremal.newton_iters"),
    ("extremal.descent_rounds", "count", "counter", "extremal.descent_rounds"),
    ("extremal.solve_self_s", "s", "self", "extremal.solve"),
    ("extremal.spsolve_calls", "count", "calls", "extremal.spsolve"),
    ("extremal.spsolve_s", "s", "self", "extremal.spsolve"),
    ("extremal.action_s", "s", "self", "extremal.action"),
    ("gram.volume_s", "s", "self", "gram.volume"),
    ("grassmann.chart_s", "s", "self", "grassmann.chart"),
)
# The boundary re-fit chain: DeformationSpec.displacement -> frame_field ->
# cartan_frame -> grad_q, plus the Python of the re-fit itself.
REFIT_CHAIN = ("variation.refit", "variation.field", "frames.cartan_frame", "lagrangian.grad_q")


def layer_metrics(tracer, op_roots, traced_wall, untraced_op_s):
    names = np.array(tracer.names)
    parents, dur, self_t, roots = tracer.arrays()
    is_op = np.isin(roots, op_roots)
    n_ops = len(op_roots)
    # On the re-fit chain: inside a variation.refit span, outside the formula.
    on_chain = names == "variation.refit"
    for i in np.nonzero(parents >= 0)[0]:
        p = parents[i]
        on_chain[i] = on_chain[i] or (on_chain[p] and names[p] != "variation.formula")
    counters = {}
    for root in op_roots:
        for key, v in tracer.op_counters[root].items():
            counters[key] = counters.get(key, 0.0) + v
    out = {}
    for metric_name, unit, kind, key in LAYER_METRICS:
        sel = is_op & (names == key)
        if kind == "calls":
            value = np.count_nonzero(sel)
        elif kind == "self":
            value = self_t[sel].sum()
        elif kind == "total":
            value = dur[sel].sum()
        else:
            value = counters.get(key, 0.0)
        out[metric_name] = metric(value / n_ops, unit)
    solves = float(np.count_nonzero(is_op & (names == "extremal.solve")))
    repeats = counters.get("extremal.repeat_solves", 0.0)
    out["extremal.repeat_solve_frac"] = metric(repeats / solves if solves else 0.0, "ratio")
    op_time = float(dur[op_roots].sum())
    bookkeeping = float(self_t[is_op & (names == "trace.bookkeeping")].sum())
    chain = float(self_t[is_op & on_chain & np.isin(names, REFIT_CHAIN)].sum())
    out["variation.refit_chain_frac"] = metric(chain / (op_time - bookkeeping), "ratio")
    out["trace.overhead_frac"] = metric(op_time / untraced_op_s - 1.0, "ratio")
    out["trace.unaccounted_frac"] = metric(abs(traced_wall - float(self_t.sum())) / traced_wall, "ratio")
    return out


def per_op_counts(tracer, op_roots):
    """Span calls and counters of each operation, for determinism checks."""
    names = tracer.names
    _, _, _, roots = tracer.arrays()
    index = {int(r): k for k, r in enumerate(op_roots)}
    counts = [dict() for _ in op_roots]
    for i, r in enumerate(roots):
        k = index.get(int(r))
        if k is not None and names[i] != "bench.op":
            counts[k][names[i]] = counts[k].get(names[i], 0) + 1
    for root, k in index.items():
        counts[k].update(tracer.op_counters[root])
    return counts


def run_traced(name, seed, size_name, dump=True):
    size = workloads.SIZES[size_name]
    wl = workloads.WORKLOADS[name](seed, size)
    ops = [op for i in range(TRACE_ROUNDS[name]) for op in wl.round(i)]
    perf = time.perf_counter
    tracer, seen, tally = spans.Tracer(), set(), Tally()
    records, untraced_records, op_roots = [], [], []

    def wrap_field(fn):
        return tracer.wrap(fn, "variation.field")

    def untraced(op):
        ts = perf()
        out = attempt(wl, op)
        dt = perf() - ts
        untraced_records.append(record(wl, op, out))
        return dt

    def traced(op):
        install(tracer, seen)
        try:
            ts = perf()
            with tracer.span("bench.op") as idx:
                out = attempt(wl, op, wrap_field)
            with tracer.span("bench.check"):
                tally.add(wl, op, out)
            dt = perf() - ts
        finally:
            tracer.restore()
        op_roots.append(idx)
        records.append(record(wl, op, out))
        return dt

    # Each operation runs untraced and traced, alternating which comes
    # first, so that drift in machine speed cancels out of the overhead.
    untraced_op_s = traced_wall = 0.0
    for k, op in enumerate(ops):
        if k % 2 == 0:
            untraced_op_s += untraced(op)
            traced_wall += traced(op)
        else:
            traced_wall += traced(op)
            untraced_op_s += untraced(op)
    metrics = layer_metrics(tracer, np.array(op_roots), traced_wall, untraced_op_s)
    counts = per_op_counts(tracer, op_roots)
    same = records == untraced_records
    info = {
        "workload": name,
        "seed": seed,
        "ops": len(ops),
        "traced_wall_s": traced_wall,
        "untraced_op_s": untraced_op_s,
        "tracing_changed_outputs": not same,
        **tally.info(),
        "versions": versions(),
    }
    if dump:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}-{size_name}.json.gz")
        tracer.dump(path, {"info": info, "records": records, "op_counts": counts, "op_roots": op_roots})
        info["trace_file"] = os.path.relpath(path, ROOT)
    result = {
        "correct": tally.unexpected == 0 and same,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return info, result, records, counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = ap.parse_args(argv)
    if args.trace:
        info, result, _, _ = run_traced(args.workload, args.seed, args.size)
    else:
        info, result = run_timed(args.workload, args.seed, args.seconds, args.size)
    info["size"] = args.size
    print("info " + json.dumps(info, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
