"""Benchmark of billiard-weyl: four workloads, timed end to end and per module.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/``.  One run builds the workload's inputs from the
seed, measures set-up time in fresh interpreters, then runs whole rounds of
the workload's operations until their measured time reaches ``--seconds``,
and checks every output.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics from a traced run with
``--trace 1``).  ``--workload all`` runs the four workloads one after the
other, each in its own process, and prints a table of their metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
WORKLOADS = ("fold-sweep", "disk-staircase", "quadrature-oracles", "cli-reports")
SETUP_REPEATS = 3

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
PER_LAYER = (
    ("folding.obtuse_corner_constant.s", "s"),
    ("folding.obtuse_corner_constant.calls", "count"),
    ("folding.broken_path_propagator.s", "s"),
    ("folding.signature_oracle.s", "s"),
    ("numpy.leggauss.calls", "count"),
    ("specfun.integrate.s", "s"),
    ("specfun.integrate.calls", "count"),
    ("specfun.evals", "count"),
    ("specfun.hankel_time_integral.s", "s"),
    ("specfun.hankel0_halfline_moment.s", "s"),
    ("orbit_terms.green_fourier.s", "s"),
    ("orbit_terms.length_term_density_quadrature.s", "s"),
    ("orbit_terms.corner_delta_by_quadrature.s", "s"),
    ("spectra.disk_spectrum.s", "s"),
    ("spectra.bessel_zeros_bracketed.s", "s"),
    ("spectra.bessel_zeros_bracketed.calls", "count"),
    ("spectra.rectangle_spectrum.s", "s"),
    ("spectra.staircase_residual.s", "s"),
    ("spectra.eigenvalues", "count"),
    ("birkhoff.bounce_map.s", "s"),
    ("birkhoff.bounce_map.calls", "count"),
    ("birkhoff.chain_product.s", "s"),
    ("geometry.frame_at.s", "s"),
    ("geometry.frame_at.calls", "count"),
    ("cli.run.s", "s"),
    ("trace.overhead_s", "s"),
)

_FAILED = object()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import billiard_weyl and,
    except on cli-reports (where set-up is the bare import a command pays),
    build the workload's inputs."""
    code = f"import sys; sys.path[:0] = [{SRC!r}, {BENCH!r}]; import billiard_weyl"
    if workload != "cli-reports":
        code += f"; import inputs; inputs.build({workload!r}, {seed})"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_round(ops, tracer, log):
    """Run the operations in order; returns (wall time, outputs, failures)."""
    outputs, failures = [], 0
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
        try:
            outputs.append(op.call())
        except Exception as exc:      # a failed operation is counted, not fatal
            failures += 1
            outputs.append(_FAILED)
            log(f"FAILED {op.label}: {type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, outputs, failures


def check_round(ops, outputs, log) -> bool:
    correct = True
    for op, out in zip(ops, outputs):
        if out is _FAILED:
            continue
        try:
            found = op.check(out)
        except Exception as exc:      # an unreadable output is a wrong output
            found = [f"check raised {type(exc).__name__}: {exc}"]
        for text in found:
            correct = False
            log(f"WRONG {op.label}: {text}")
    return correct


def output_counts(outputs) -> dict:
    """Evaluations and eigenvalues in the results returned to the workload."""
    from billiard_weyl.specfun import QuadratureResult
    from billiard_weyl.spectra import Spectrum

    evals = sum(o.evaluations for o in outputs if isinstance(o, QuadratureResult))
    eigenvalues = sum(len(o) for o in outputs if isinstance(o, Spectrum))
    return {"specfun.evals": evals, "spectra.eigenvalues": eigenvalues}


def run_workload(args) -> dict:
    sys.path[:0] = [SRC]
    os.chdir(ROOT)
    import inputs
    import tracing
    import workloads

    seen = set()

    def log(text):
        if text not in seen:
            seen.add(text)
            print(text, file=sys.stderr)

    inp = inputs.build(args.workload, args.seed)
    refs = workloads.References()
    make_ops = workloads.ROUNDS[args.workload]
    if args.trace and args.workload == "cli-reports":
        def make_ops(inp, refs):
            return workloads.cli_reports(inp, refs, runner=workloads.run_cli_in_process)

    setup = setup_seconds(args.workload, args.seed) if not args.trace else None
    tracer = tracing.Tracer() if args.trace else None
    walls, per_round = [], []
    attempted = failed = 0
    correct = True
    while not walls or sum(walls) < args.seconds:
        ops = make_ops(inp, refs)
        if tracer is not None:
            before = tracer.snapshot()
            tracer.install()
        try:
            wall, outputs, failures = run_round(ops, tracer, log)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            per_round.append(layer_metrics(tracer, before, outputs))
        walls.append(wall)
        attempted += len(ops)
        failed += failures
        correct &= check_round(ops, outputs, log)

    if tracer is None:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-reports" else resource.RUSAGE_SELF
        values = {"wall_s": statistics.median(walls), "setup_s": setup,
                  "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        cost = tracing.span_cost()
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = cost * statistics.median(r["spans"] for r in per_round)
            else:
                value = statistics.median(r[name] for r in per_round)
            metrics[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "round_walls_s": walls,
                   **result}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    return result


def layer_metrics(tracer, before, outputs) -> dict:
    """Per-layer self times and counts of one traced round."""
    self_before, calls_before = before
    self_after, calls_after = tracer.snapshot()
    out = {"spans": sum(calls_after.values()) - sum(calls_before.values())}
    for name, _unit in PER_LAYER:
        base = name.rsplit(".", 1)[0]
        if name.endswith(".s"):
            out[name] = self_after.get(base, 0.0) - self_before.get(base, 0.0)
        elif name.endswith(".calls"):
            out[name] = calls_after.get(base, 0) - calls_before.get(base, 0)
    out.update(output_counts(outputs))
    return out


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"{workload}: exit {proc.returncode}")
        res = results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "billiard_weyl", "__init__.py")):
        print(f"no billiard_weyl sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
    else:
        print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
