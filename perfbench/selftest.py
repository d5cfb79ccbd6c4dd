"""Self-test of the benchmark itself (not of lowdin).

    python3 perfbench/selftest.py

Checks that
* the same seed generates byte-identical inputs, in any order of
  generation, and another seed does not;
* the tracer wraps every public function wherever it is bound, and
  uninstalling leaves no wrapper behind;
* every workload prints every metric of BENCHMARK.json with its unit,
  untraced and traced, plus failed_fraction with its denominator;
* two traced runs with the same seed report identical counts;
* the benchmark fails, without a result line, when the lowdin sources
  are missing.
It also prints the eigensolver calls per command, one run each.
Takes about six minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from inputs import COMMANDS, WINDOW, OpStream, format_text  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
failures = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def stream_bytes(workload: str, seed: int, order) -> bytes:
    stream = OpStream(workload, seed)
    ops = {i: stream.op(i) for i in order}
    return b"".join(ops[i].input_bytes() for i in sorted(ops))


def check_inputs() -> None:
    for workload in WORKLOADS:
        size = WINDOW[workload]
        forward = stream_bytes(workload, 7, range(size))
        backward = stream_bytes(workload, 7, reversed(range(size)))
        other = stream_bytes(workload, 8, range(size))
        expect(forward == backward, f"{workload}: seed 7 inputs are byte-identical on regeneration")
        expect(forward != other, f"{workload}: seed 8 gives other inputs than seed 7")


def check_wrappers() -> None:
    import lowdin.cli
    import lowdin.linalg
    import lowdin.ortho
    import lowdin.pca

    expect(not tracing.installed_wrappers(), "no wrapper installed before tracing")
    original = lowdin.linalg.hermitian_eigen
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        bound = [lowdin.linalg.hermitian_eigen, lowdin.ortho.hermitian_eigen, lowdin.pca.hermitian_eigen]
        expect(all(fn is not original for fn in bound), "hermitian_eigen wrapped in linalg, ortho and pca")
        expect(len(tracing.installed_wrappers()) >= len(tracing.public_functions()),
               "every public function is wrapped")
        v = np.array([[2.0, 1.0, 0.0], [0.5, 3.0, 1.0], [0.0, 1.0, 4.0], [1.0, 0.0, 1.0]])
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            path = Path(tmp) / "v.csv"
            path.write_text(format_text(v, "csv"))
            calls = {}
            for command in COMMANDS:
                before = len(tracer.spans)
                status = lowdin.cli.main([command, "--input", str(path), "--output-dir", tmp])
                calls[command] = sum(s[0] == tracing.EIGEN for s in tracer.spans[before:])
                expect(status == 0, f"traced `lowdin {command}` exits 0")
        print("     hermitian_eigen calls per command: "
              + ", ".join(f"{c} {n}" for c, n in calls.items()))
    finally:
        tracing.uninstall(patched)
    expect(not tracing.installed_wrappers(), "uninstall leaves no wrapper")
    expect(lowdin.ortho.hermitian_eigen is original, "uninstall restores the original objects")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    command = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_outputs() -> dict:
    traced = {}
    for workload in WORKLOADS:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = run_bench(workload, 3, trace)
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exits 0")
            if proc.returncode != 0:
                print(proc.stderr)
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result["correct"] is True and result["attempted"] >= 1, f"{label}: correct, ops attempted")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == {m["name"]: m["unit"] for m in declared},
                   f"{label}: every declared metric printed with its unit")
            expect(any(line.split()[:1] == ["failed_fraction"] and " of " in line for line in lines),
                   f"{label}: failed_fraction printed with its denominator")
            expect(any(line.split()[:1] == ["resid_log10_max"] for line in lines),
                   f"{label}: resid_log10_max printed")
            if trace:
                traced[workload] = result["metrics"]
    return traced


def check_repeatable(first: dict) -> None:
    workload = "solve-single"
    again = json.loads(run_bench(workload, 3, 1).stdout.strip().splitlines()[-1])["metrics"]
    counts = [name for name, m in first[workload].items()
              if m["unit"] in ("count", "bytes", "sweeps", "count-computed")]
    expect(all(first[workload][n]["value"] == again[n]["value"] for n in counts),
           f"{workload}: counts and sweeps repeat exactly between two traced runs")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("cli-desk", 1, 0, cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and not last[0].startswith("{"),
               "without lowdin sources the benchmark fails and prints no result")


def main() -> int:
    check_inputs()
    check_wrappers()
    traced = check_outputs()
    if "solve-single" in traced:
        check_repeatable(traced)
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
