"""logchoquard benchmark: run one workload through the real CLI and report.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-cart --seed 1 --seconds 30 --trace 0

Workloads, metrics and units are defined in BENCHMARK.json and
perfbench/workloads.py.  One run starts a fresh single-threaded worker
process (BLAS/OpenMP threads pinned to 1) that imports ``logchoquard`` from
``src``, validates the workload's configs, then runs the workload's commands
through ``logchoquard.cli.main`` in a closed loop (one client, one command
at a time) for ``--seconds``, always completing at least one pass.  A few
more fresh interpreters only repeat the set-up, and ``setup_s`` is the
median over all of them.

Every command's exit code and report are checked (workloads.py), and every
report must be byte-identical, apart from paths and wall-clock fields, to
the other passes of the run and to earlier runs of the same seed on the same
source tree (kept in .perfbench_work/digests.json).  A command failing any
check counts in ``failed``; the run then exits 1 after printing its result.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics from outside-in spans (tracing.py); the
spans themselves are written to .perfbench_work/spans-<workload>.tsv.  The
lines above it give every metric with its median, highest percentile that
has ten samples beyond it (when there are enough passes), sample count and
unit, the solve trajectory and the machine.

Exit codes: 0 all checks passed, 1 a check failed or the worker died,
2 the source tree or the workload is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170      # every worker of one run must end within this
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def worker_env():
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_worker(args, workdir, result, setup_only, deadline):
    """Run one worker to completion and return its set-up seconds: the time
    from spawning a fresh interpreter until it reports ``ready``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=worker_env(), cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline().strip() == "ready"
            setup = time.perf_counter() - t0
            code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            raise RuntimeError("worker ran past the run's time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if not ready or code != 0:
        raise RuntimeError(f"worker exited with code {code}"
                           + ("" if ready else " before set-up completed"))
    return setup


def source_hash():
    """Digest of the package sources and the benchmark configs."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "logchoquard"), os.path.join(HERE, "configs")):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".cfg")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_determinism(workload, seed, passes):
    """Compare report digests across the passes and with earlier runs of this
    seed on this source tree; append a failure to each mismatching command.
    The calls per traced pass are compared the same way."""
    store_path = os.path.join(STATE, "digests.json")
    try:
        with open(store_path) as handle:
            store = json.load(handle)
    except (OSError, ValueError):
        store = {}
    prefix = f"{source_hash()}/{workload.name}/{seed}"
    for p in passes:
        for i, (command, check) in enumerate(zip(workload.commands, p["checks"])):
            if check["digest"] is None:
                continue
            key = f"{prefix}/{i}-{command.name}"
            expected = store.setdefault(key, check["digest"])
            if expected != check["digest"]:
                check["failures"].append(
                    f"{command.name}: report differs from an earlier pass or "
                    f"run of seed {seed}")
        if p["traced"]:
            calls = {name: s["calls"] for name, s in
                     sorted(p["profile"]["functions"].items())}
            digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
            if store.setdefault(f"{prefix}/calls", digest) != digest:
                for check in p["checks"]:
                    check["failures"].append(
                        "call counts differ from an earlier traced pass or run")
    tmp = store_path + f".{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(store, handle, indent=0, sort_keys=True)
    os.replace(tmp, store_path)


def high_percentile(values):
    """(percent, value) of the highest percentile with at least ten samples
    above it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return int(100 * (n - 10) / n), ordered[n - 11]


def command_seconds(passes, name):
    return [out["seconds"] for p in passes for out in p["commands"]
            if out["command"] == name]


def end_to_end(passes, setups, peak_rss_mb):
    """Samples of each end-to-end metric (untraced passes only)."""
    plain = [p for p in passes if not p["traced"]]
    return {
        "wall_s": [p["wall_s"] for p in plain],
        "setup_s": setups,
        "peak_rss_mb": [peak_rss_mb],
        "solve_s": command_seconds(plain, "solve"),
        "moser_scan_s": command_seconds(plain, "moser-scan"),
    }


def per_layer(passes):
    """Samples of each per-layer metric, one per traced pass (counts repeat
    exactly across passes; check_determinism enforces that)."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]

    def per_pass(p):
        prof = p["profile"]
        funcs = prof["functions"]
        out = {}
        for name, s in funcs.items():
            out[f"{name}.calls"] = s["calls"]
            out[f"{name}.self_s"] = s["self_s"]
            out[f"{name}.first_s"] = s["first_s"]

        def aux(name):
            return funcs.get(name, {}).get("aux", [])
        out["kernel.convolve_kernel.gflop"] = sum(
            tracing.fft_pair_flops(int(m)) for m in aux("kernel.convolve_kernel")) / 1e9
        out["kernel.convolve_kernel.mb_moved"] = sum(
            tracing.fft_pair_bytes(int(m)) for m in aux("kernel.convolve_kernel")) / 1e6
        out["kernel.b0_form.radial_mb_moved"] = sum(
            n * n * 8 for n in aux("kernel.b0_form")) / 1e6
        out["kernel.bilinear_direct.pairs"] = int(sum(aux("kernel.bilinear_direct")))
        out["reports.bytes_written"] = int(sum(aux("reports.write_report"))
                                           + sum(aux("reports.save_field")))
        summaries = [c["summary"] for c, cmd in zip(p["checks"], p["commands"])
                     if cmd["command"] == "solve"]
        iterations = sum(s.get("iterations", 0) for s in summaries)
        out["solver.iterations"] = iterations
        out["solver.restarts"] = sum(s.get("restarts", 0) for s in summaries)
        in_solve = funcs.get("energy.total_energy", {}).get("calls_in_solve", 0)
        out["solver.evals_per_iter"] = in_solve / iterations if iterations else 0.0
        for cmd, seconds in prof["commands"].items():
            out[f"{cmd.replace('-', '_')}.total_s"] = seconds
        out["trace.untraced_s"] = prof["uncovered_s"]
        return out

    samples = [per_pass(p) for p in traced]
    metrics = {name: [s.get(name, 0) for s in samples]
               for name in set().union(*samples)}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_frac"] = [(traced_wall - plain_wall) / plain_wall]
    return metrics


def machine():
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            def read(name, index=index):
                with open(os.path.join(base, index, name)) as handle:
                    return handle.read().strip()
            if index.startswith("index") and read("type") != "Instruction":
                info["caches"][f"L{read('level')}"] = {
                    "size": read("size"), "shared_cpus": read("shared_cpu_list")}
    except OSError:
        pass
    return info


def working_set(workload, caches):
    """Each hot array against the per-core L2 and the shared L3."""
    def size_bytes(text):
        units = {"K": 1024, "M": 1024**2, "G": 1024**3}
        return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
    sizes = {level: size_bytes(c["size"]) for level, c in caches.items()}
    rows = []
    for label, nbytes in workload.working_set:
        fits = next((level for level in ("L2", "L3")
                     if level in sizes and nbytes <= sizes[level]), "memory")
        rows.append({"array": label, "MB": nbytes / 1e6, "fits": fits})
    return rows


def typical(values):
    """The median; a value every sample shares (a count) keeps its type."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def describe(name, values, unit):
    med = typical(values)
    hi = high_percentile(values)
    tail = f"p{hi[0]} {hi[1]:.6g}" if hi else "p- (needs >= 11 samples)"
    return f"  {name:<44} median {med:<12.6g} {tail:<26} n={len(values):<3} {unit}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "logchoquard", "cli.py")):
        print(f"perfbench: no logchoquard sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(STATE, exist_ok=True)
    workdir = os.path.join(STATE, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        setups = [run_worker(args, workdir, result_path, False, deadline)]
        setups += [run_worker(args, workdir, result_path, True, deadline)
                   for _ in range(SETUP_SAMPLES - 1)]
        with open(result_path) as handle:
            result = json.load(handle)
        passes = result["passes"]
        check_determinism(workload, args.seed, passes)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = [c for p in passes for c in p["checks"]]
    failed = sum(1 for c in checks if c["failures"])
    samples = end_to_end(passes, setups, result["peak_rss_mb"])
    if args.trace:
        samples.update(per_layer(passes))

    # functions and commands a workload never reaches have no samples: zero
    missing = [m["name"] for m in wanted if m["name"] not in samples
               and not m["name"].endswith((".calls", ".self_s", ".first_s",
                                           ".total_s"))]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)} (closed loop, 1 client, "
          f"{len(workload.commands)} commands per pass)")
    for name in ("solve_s", "moser_scan_s"):
        if samples[name] and not args.trace:
            print(describe(name, samples[name], "s"))
    for m in wanted:
        print(describe(m["name"], samples.get(m["name"]) or [0], m["unit"]))
    print(f"  {'ops':<44} {len(checks)}\n  {'ops_failed':<44} {failed}")
    for c, out in zip(checks, [o for p in passes for o in p["commands"]]):
        if c["summary"]:
            print(f"  {out['command']}: {json.dumps(c['summary'])}")
        for message in c["failures"]:
            print(f"  FAILED {message}")
    host = machine()
    print("env " + json.dumps({**host, **result["environment"],
                               "working_set": working_set(workload,
                                                          host["caches"])}))
    if result.get("spans_file"):
        print(f"spans written to {os.path.relpath(result['spans_file'], ROOT)}")

    metrics = {m["name"]: {"value": typical(samples.get(m["name"]) or [0]),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
