"""The lowdin benchmark.

    python3 perfbench/run.py --workload {cli-desk,solve-single,multi-factor,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; lowdin is imported from ``src``.
Each workload is a closed loop: one client in one process sends the next
op when the previous one has finished.  BLAS is pinned to one thread in
this process and in every process it starts.  Every op is checked against
numpy's SVD outside its timed window (see ``check.py``).

Both modes make passes over a fixed window of ops from the seed until
the time is up.  ``--trace 0`` measures the end-to-end metrics with no
wrapper installed; an op's time is the median of its runs, corrected
for the host's speed by probes timed next to it (``reference.py``).
``--trace 1`` runs each op untraced and then traced and reports the
per-layer metrics.
Counts come from the first pass, so they repeat exactly for a given seed.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
if __name__ == "__main__":
    # Before numpy is loaded, here and (through the environment) in children.
    os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from inputs import COMMANDS, WINDOW, OpStream  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-desk", "solve-single", "multi-factor")
MIN_PASSES = 2
# setup_s is the median of this many fresh imports, each corrected by the
# start-up probes around it and spread evenly over the run.
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 7
STATUS_RANK = {"ok": 0, "known": 1, "wrong": 2}
LIBRARY_FUNCTIONS = {
    "symmetric": ("ortho", "symmetric_orthogonalize"),
    "canonical": ("ortho", "canonical_orthogonalize"),
    "svd": ("decompositions", "reduced_svd"),
}
SELF_TIMED = (
    "ortho.symmetric_orthogonalize",
    "ortho.canonical_orthogonalize",
    "ortho.orthogonalize_general",
    "ortho.verify_orthonormal",
    "ortho.require_unitary",
    "decompositions.polar_decompose",
    "decompositions.reduced_svd",
    "decompositions.reconstruct_polar",
    "decompositions.reconstruct_svd",
    "decompositions.canonical_from_symmetric",
    "decompositions.symmetric_from_canonical",
    "decompositions.symmetric_from_svd",
    "pca.principal_components",
    "pca.gram_sscp_eigenvalue_check",
    "pca.projection_square_sums",
    "pca.sscp_matrix",
)
ERROR_TYPES = (
    "DimensionMismatch",
    "NotHermitian",
    "NotUnitary",
    "NoConvergence",
    "SingularMetric",
    "NegativeEigenvalue",
    "ParseError",
    "RaggedRows",
    "EmptyMatrix",
    "ValueError",
    "other",
)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.numpy_ms": "ms",
    "import.lowdin_ms": "ms",
    "matrixio.parse_matrix_file.ms": "ms",
    "matrixio.parse_matrix_file.calls": "count",
    "matrixio.parse_matrix_file.bytes": "bytes",
    "matrixio.write_matrix_file.ms": "ms",
    "matrixio.write_matrix_file.calls": "count",
    "matrixio.write_matrix_file.bytes": "bytes",
    "cli.run.self_ms": "ms",
    "linalg.hermitian_eigen.ms": "ms",
    "linalg.hermitian_eigen.calls": "count",
    "linalg.hermitian_eigen.sweeps_mean": "sweeps",
    "linalg.hermitian_eigen.sweeps_max": "sweeps",
    "linalg.hermitian_eigen.rotations": "count-computed",
    "linalg.hermitian_eigen.calls_per_op": "count",
    **{f"linalg.hermitian_eigen.calls_per_op.{c}": "count" for c in COMMANDS},
    "linalg.gram_metric.ms": "ms",
    "linalg.hermitian_power.self_ms": "ms",
    **{f"{name}.self_ms": "ms" for name in SELF_TIMED},
    "ortho.verify_orthonormal.ms": "ms",
    "pca.sscp_matrix.ms": "ms",
    "linalg.lapack_ref_ms": "ms",
    "linalg.jacobi_over_lapack": "ratio",
    **{f"cli.exit_code.{code}": "count" for code in range(4)},
    "cli.traceback.count": "count",
    "cli.report_missing.count": "count",
    **{f"errors.{kind}.count": "count" for kind in ERROR_TYPES},
    "trace.overhead_pct": "%",
    "trace.window_ops": "count",
    "check.failed_fraction": "fraction",
    "check.resid_log10_max": "log10",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def fresh_interpreter(code: str) -> tuple:
    """Run ``code`` in a new interpreter from the checkout root: (wall s, stdout)."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True, text=True
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def setup_sample(clock) -> tuple:
    """A fresh interpreter importing lowdin.cli: (corrected seconds, wall seconds)."""
    clock.start()
    fresh_interpreter("import lowdin.cli")
    wall, probe = clock.stop()
    return wall * clock.nominal / probe, wall


def measure_imports() -> dict:
    code = (
        "import time, json; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
        "import lowdin.cli; t2 = time.perf_counter(); print(json.dumps([t1 - t0, t2 - t1]))"
    )
    fresh_interpreter(code)
    samples = [json.loads(fresh_interpreter(code)[1]) for _ in range(IMPORT_SAMPLES)]
    return {
        "import.numpy_ms": statistics.median(s[0] for s in samples) * 1000.0,
        "import.lowdin_ms": statistics.median(s[1] for s in samples) * 1000.0,
    }


def environment() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    threads = ",".join(f"{var}={os.environ.get(var)}" for var in THREAD_VARS)
    return (
        f"env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} blas={blas_text} {threads}"
    )


class Runner:
    """Executes one op and returns (seconds, verdict); checks run after the clock stops.

    ``probe`` holds the clock's mean probe time for the last op (None for
    a ``WallClock``).
    """

    def __init__(self, workload: str, workdir: Path, clock=None):
        import lowdin.linalg

        self.workload = workload
        self.workdir = workdir
        self.clock = clock or reference.WallClock()
        self.probe = None
        self.cfg = lowdin.linalg.DEFAULT_TOLERANCES
        self.tracer = None  # set while an op runs traced
        self.written_bytes = 0
        self.input_bytes = 0

    def __call__(self, op):
        if self.workload == "solve-single":
            return self._library(op)
        path = self.workdir / f"input.{op.fmt}"
        path.write_text(op.text, encoding="utf-8")
        self.input_bytes = path.stat().st_size
        outdir = self.workdir / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        argv = [op.command, "--input", str(path), "--output-dir", str(outdir), "--format", op.fmt]
        if self.workload == "cli-desk":
            elapsed, code, traceback = self._process(argv)
        else:
            elapsed, code, traceback = self._in_process(argv)
        verdict = check.check_cli(op, code, traceback, outdir, self.cfg)
        self.written_bytes = sum(
            f.stat().st_size for f in outdir.glob("*") if f.name != "report.json"
        ) if outdir.is_dir() else 0
        shutil.rmtree(outdir, ignore_errors=True)
        return elapsed, verdict

    def _library(self, op):
        module, name = LIBRARY_FUNCTIONS[op.command]
        # Looked up per call so that installed wrappers take effect.
        fn = getattr(importlib.import_module(f"lowdin.{module}"), name)
        result = error = None
        self.clock.start()
        try:
            result = fn(op.matrix)
        except Exception as exc:  # counted as a failed op by the check
            error = exc
        elapsed, self.probe = self.clock.stop()
        return elapsed, check.check_library(op, result, error, self.cfg)

    def _in_process(self, argv):
        import lowdin.cli

        traceback = False
        self.clock.start()
        try:
            code = lowdin.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # what an uncaught exception does to `python -m lowdin.cli`
            code, traceback = 1, True
        elapsed, self.probe = self.clock.stop()
        return elapsed, code, traceback

    def _process(self, argv):
        dump = self.workdir / "spans.pickle"
        if self.tracer is None:
            command = [sys.executable, "-m", "lowdin.cli", *argv]
        else:
            launcher = str(BENCH / "launch.py")
            command = [sys.executable, launcher, str(dump), str(int(self.tracer.capture)), *argv]
        self.clock.start()
        proc = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True, text=True)
        elapsed, self.probe = self.clock.stop()
        if self.tracer is not None:
            with open(dump, "rb") as handle:
                self.tracer.absorb(pickle.load(handle), self.tracer.op)
            dump.unlink()
        traceback = "Traceback (most recent call last)" in proc.stderr
        return elapsed, proc.returncode, traceback


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-desk" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def outcome_summary(verdicts: list) -> dict:
    resids = [v.resid for v in verdicts if v.resid is not None]
    failed = sum(v.status != "ok" for v in verdicts)
    return {
        "attempted": len(verdicts),
        "failed": failed,
        "wrong": [v for v in verdicts if v.status == "wrong"],
        "failed_fraction": failed / len(verdicts) if verdicts else math.nan,
        "resid_log10_max": math.log10(max(max(resids), 5e-324)) if resids else math.nan,
        "resid_count": len(resids),
    }


def measure(workload: str, seed: int, seconds: float, workdir: Path):
    """Untraced closed loop: passes over the window until time is up.

    Every pass runs the same ops in the same order.  Each op is timed by a
    clock that probes the host's speed around it (``reference.py``); its
    time is scaled to the probe's nominal speed, and an op's corrected
    time is the median over passes.  A fixed window keeps the measured
    inputs the same whatever the machine's speed.  Set-up samples are
    taken between ops, outside their timed windows.
    """
    stream = OpStream(workload, seed)
    window = [stream.op(i) for i in range(WINDOW[workload])]
    setup_clock = reference.ProcessClock(ROOT, child_env(), chain=False)
    if workload == "cli-desk":
        clock = reference.ProcessClock(ROOT, child_env(), chain=True)
    else:
        clock = reference.SampledClock()
    runner = Runner(workload, workdir, clock)
    setup_sample(setup_clock)  # warm-up: compiles lowdin's bytecode in a fresh checkout
    runner(window[0])  # warm-up, not recorded
    leftover = tracing.installed_wrappers()
    setup, probes, runs = [], [], [[] for _ in window]
    begin = perf_counter()
    while True:
        pass_start = perf_counter()
        for op, op_runs in zip(window, runs):
            if len(setup) < SETUP_SAMPLES and perf_counter() - begin >= len(setup) * seconds / SETUP_SAMPLES:
                setup.append(setup_sample(setup_clock))
            elapsed, verdict = runner(op)
            op_runs.append((elapsed * clock.nominal / runner.probe, elapsed, verdict))
            probes.append(runner.probe)
        now = perf_counter()
        if len(runs[0]) >= MIN_PASSES and now - begin + (now - pass_start) > seconds:
            break
    setup += [setup_sample(setup_clock) for _ in range(SETUP_SAMPLES - len(setup))]
    leftover += tracing.installed_wrappers()
    times = [statistics.median(t for t, _, _ in op_runs) for op_runs in runs]
    wall = [statistics.median(w for _, w, _ in op_runs) for op_runs in runs]
    verdicts = [max((v for _, _, v in op_runs), key=lambda v: STATUS_RANK[v.status]) for op_runs in runs]
    host = {"passes": len(runs[0]), "wall": wall, "probe_ms": statistics.median(probes) * 1000.0,
            "nominal_ms": clock.nominal * 1000.0, "clock": type(clock).__name__}
    return setup, times, verdicts, leftover, host


def harrell_davis(values: list, q: float) -> float:
    """Harrell-Davis estimate of quantile q: a Beta-weighted mean of all order statistics.

    A window's op times have gaps between neighbouring sizes, and the
    solver's sweep count moves with the matrix entries, so a single order
    statistic hops between neighbours from seed to seed; the weights
    spread over the ranks around q and smooth that out.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    # The Beta(a, b) distribution function, integrated by the midpoint rule.
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    edges = np.linspace(0.0, 1.0, 10_001)
    mid = (edges[1:] + edges[:-1]) / 2.0
    log_pdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid) - math.lgamma(a) - math.lgamma(b)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf + math.lgamma(a + b)))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, edges, cdf / cdf[-1]))
    return float(weights @ x)


def op_times(times: list) -> dict:
    """ops_per_s, op_ms.p50 and op_ms.p90 of per-op times in seconds."""
    ms = [t * 1000.0 for t in times]
    return {
        "ops_per_s": len(ms) * 1000.0 / sum(ms),
        "op_ms.p50": harrell_davis(ms, 0.5),
        "op_ms.p90": harrell_davis(ms, 0.9),
    }


def end_to_end(workload: str, setup: list, times: list) -> dict:
    rss = peak_rss_mb(workload)  # before the summary statistics allocate anything
    metrics = {"setup_s": (statistics.median(s for s, _ in setup), len(setup))}
    metrics.update({name: (value, len(times)) for name, value in op_times(times).items()})
    metrics["peak_rss_mb"] = (rss, 1)
    return metrics


@dataclass
class TracedRun:
    window: list
    tracer: tracing.Tracer = field(default_factory=tracing.Tracer)
    first: dict = field(default_factory=dict)  # op index -> (verdict, input bytes, written bytes)
    passes: int = 0
    untraced_s: float = 0.0
    traced_s: float = 0.0
    leftover: list = field(default_factory=list)  # wrappers seen before an untraced op


def traced(workload: str, seed: int, seconds: float, workdir: Path) -> TracedRun:
    """Passes over the window until time is up; each op runs untraced, then traced."""
    stream = OpStream(workload, seed)
    run = TracedRun([stream.op(i) for i in range(WINDOW[workload])])
    tracer = run.tracer
    runner = Runner(workload, workdir)
    runner(run.window[0])  # warm-up, not recorded
    begin = perf_counter()
    while True:
        pass_start = perf_counter()
        for op in run.window:
            run.leftover += tracing.installed_wrappers()
            run.untraced_s += runner(op)[0]
            tracer.op, tracer.capture = (run.passes, op.index), run.passes == 0
            runner.tracer = tracer
            # A CLI child installs its own wrappers (launch.py).
            patched = tracing.install(tracer) if workload != "cli-desk" else []
            try:
                elapsed, verdict = runner(op)
            finally:
                tracing.uninstall(patched)
                runner.tracer = None
            run.traced_s += elapsed
            if run.passes == 0:
                run.first[op.index] = (verdict, runner.input_bytes, runner.written_bytes)
        run.passes += 1
        now = perf_counter()
        if now - begin + (now - pass_start) > seconds:
            return run


def per_layer(run: TracedRun) -> tuple:
    """Per-layer metrics: ms are per traced op, counts cover the first pass."""
    window, tracer, first = run.window, run.tracer, run.first
    traced_ops = run.passes * len(window)
    totals = tracing.layer_totals(tracer.spans)
    window_spans = [s for s in tracer.spans if s[4][0] == 0]
    calls = Counter(s[0] for s in window_spans)
    metrics = {}

    def per_op_ms(name, column=0):
        return totals.get(name, (0.0, 0.0))[column] * 1000.0 / traced_ops

    for name in ("matrixio.parse_matrix_file", "matrixio.write_matrix_file", "linalg.hermitian_eigen"):
        metrics[f"{name}.ms"] = per_op_ms(name)
        metrics[f"{name}.calls"] = calls[name]
    metrics["matrixio.parse_matrix_file.bytes"] = sum(b for _, b, _ in first.values())
    metrics["matrixio.write_matrix_file.bytes"] = sum(b for _, _, b in first.values())
    metrics["cli.run.self_ms"] = per_op_ms("cli.run", 1)
    metrics["linalg.gram_metric.ms"] = per_op_ms("linalg.gram_metric")
    metrics["linalg.hermitian_power.self_ms"] = per_op_ms("linalg.hermitian_power", 1)
    for name in SELF_TIMED:
        metrics[f"{name}.self_ms"] = per_op_ms(name, 1)
    metrics["ortho.verify_orthonormal.ms"] = per_op_ms("ortho.verify_orthonormal")
    metrics["pca.sscp_matrix.ms"] = per_op_ms("pca.sscp_matrix")

    # Eigensolver work, from the matrices captured in the first traced pass.
    sweeps_of = tracing.SweepCounter()
    sweeps, rotations, jacobi_s, lapack_s = [], 0, 0.0, 0.0
    for index, matrix, cfg in tracer.eigen_inputs:
        needed = sweeps_of(matrix, cfg)
        if needed is None:  # the call failed before any sweep
            continue
        n = matrix.shape[0]
        sweeps.append(needed)
        rotations += needed * n * (n - 1) // 2
        span = tracer.spans[index]
        jacobi_s += span[2] - span[1]
        lapack_s += tracing.lapack_seconds(matrix)
    metrics["linalg.hermitian_eigen.sweeps_mean"] = statistics.mean(sweeps) if sweeps else 0.0
    metrics["linalg.hermitian_eigen.sweeps_max"] = max(sweeps, default=0)
    metrics["linalg.hermitian_eigen.rotations"] = rotations
    metrics["linalg.hermitian_eigen.calls_per_op"] = calls[tracing.EIGEN] / len(window)
    per_command = defaultdict(list)
    eigen_calls = Counter(s[4][1] for s in window_spans if s[0] == tracing.EIGEN)
    for op in window:
        if op.hostile is None and first[op.index][0].status == "ok":
            per_command[op.command].append(eigen_calls[op.index])
    for command in COMMANDS:
        counts = per_command.get(command)
        metrics[f"linalg.hermitian_eigen.calls_per_op.{command}"] = (
            statistics.mean(counts) if counts else 0
        )
    metrics["linalg.lapack_ref_ms"] = lapack_s * 1000.0 / len(window)
    metrics["linalg.jacobi_over_lapack"] = jacobi_s / lapack_s if lapack_s > 0.0 else 0.0

    verdicts = [first[op.index][0] for op in window]
    exit_codes = Counter(v.exit_code for v in verdicts)
    for code in range(4):
        metrics[f"cli.exit_code.{code}"] = exit_codes[code]
    metrics["cli.traceback.count"] = sum(v.traceback for v in verdicts)
    metrics["cli.report_missing.count"] = sum(v.report_missing for v in verdicts)
    errors = Counter()
    for (op, kind), count in tracer.errors.items():
        if op[0] == 0:
            errors[kind if kind in ERROR_TYPES else "other"] += count
    for kind in ERROR_TYPES:
        metrics[f"errors.{kind}.count"] = errors[kind]
    metrics["trace.overhead_pct"] = 100.0 * (run.traced_s / run.untraced_s - 1.0)
    metrics["trace.window_ops"] = len(window)
    summary = outcome_summary(verdicts)
    metrics["check.failed_fraction"] = summary["failed_fraction"]
    metrics["check.resid_log10_max"] = summary["resid_log10_max"]
    return metrics, verdicts


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    lines = [f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}", environment()]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if trace:
            imports = measure_imports()
            run = traced(workload, seed, seconds, workdir)
            metrics, verdicts = per_layer(run)
            metrics.update(imports)
            metrics = {name: (metrics[name], None) for name in PER_LAYER}
            units = PER_LAYER
            leftover = run.leftover
            lines.append(f"traced passes {run.passes} over a window of {len(run.window)} ops")
        else:
            setup, times, verdicts, leftover, host = measure(workload, seed, seconds, workdir)
            metrics = end_to_end(workload, setup, times)
            units = END_TO_END
            lines.append(
                f"passes {host['passes']} over a window of {len(times)} ops; an op's time is the median"
                f" over passes, corrected by {host['clock']} probes (median {host['probe_ms']:.4g} ms,"
                f" nominal {host['nominal_ms']:.4g} ms)"
            )
            wall = {"setup_s": statistics.median(w for _, w in setup), **op_times(host["wall"])}
            lines.append("  uncorrected wall time: " + ", ".join(
                f"{name} {value:.6g}" for name, value in wall.items()))
    summary = outcome_summary(verdicts)
    for name, (value, samples) in metrics.items():
        count = f"  (n={samples})" if samples is not None else ""
        lines.append(f"  {name:48s} {value:>16.6g} {units[name]}{count}")
    lines.append(
        f"  {'failed_fraction':48s} {summary['failed_fraction']:>16.6g} fraction"
        f"  ({summary['failed']} of {summary['attempted']} ops)"
    )
    lines.append(
        f"  {'resid_log10_max':48s} {summary['resid_log10_max']:>16.6g} log10"
        f"  (n={summary['resid_count']} ops that returned factors)"
    )
    for verdict in summary["wrong"][:5]:
        lines.append(f"  wrong: {verdict}")
    if leftover:
        lines.append(f"  wrappers installed during an untraced pass: {sorted(set(leftover))}")
    correct = not summary["wrong"] and not leftover and summary["attempted"] > 0
    return {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
        "lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lowdin" / "cli.py").is_file():
        print(f"error: no lowdin sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    for result in results.values():
        print("\n".join(result.pop("lines")))
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric for w, r in results.items() for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
