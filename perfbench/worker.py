"""One benchmark process: set up, run a workload's commands in passes, check.

Started by run.py with the repository's ``src`` on PYTHONPATH and BLAS
threads pinned.  It prints ``ready`` once ``logchoquard`` is imported and
every config of the workload is validated (the parent times that as
set-up), then runs passes of the workload through ``logchoquard.cli.main``
until ``--seconds`` are used, checks every report after its pass, and
writes a JSON result to ``--result``.  With ``--setup-only`` it exits after
``ready``.

With ``--trace 1`` passes alternate untraced and traced, starting
untraced, so the tracing overhead is measured inside one process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "configs")
_VOLATILE = re.compile(
    r'^\s*"(%s)":.*$' % "|".join(workloads.VOLATILE_KEYS), re.MULTILINE)


def report_digest(text, field_bytes):
    """sha256 of the report with its volatile lines removed, plus the field."""
    digest = hashlib.sha256(_VOLATILE.sub("", text).encode())
    if field_bytes is not None:
        digest.update(field_bytes)
    return digest.hexdigest()


def run_pass(workload, seed, workdir, tracer):
    """Run every command once; return timings and the written outputs."""
    from logchoquard import cli
    outputs = []
    t_pass = time.perf_counter()
    for i, command in enumerate(workload.commands):
        out = os.path.join(workdir, f"{i}-{command.name}.json")
        argv = [command.name, "--config", os.path.join(CONFIGS, command.config),
                "--seed", str(seed), "--output", out]
        span = (tracer.span(f"cmd.{command.name}") if tracer is not None
                else contextlib.nullcontext())
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        outputs.append({"command": command.name, "code": code, "path": out,
                        "seconds": time.perf_counter() - t0})
    return time.perf_counter() - t_pass, outputs


def check_pass(workload, outputs):
    """Apply the exit-code, report and field round-trip checks."""
    from logchoquard import reports
    context = {}
    results = []
    for command, out in zip(workload.commands, outputs):
        failures = []
        if out["code"] != 0:
            failures.append(f"{command.name}: exit code {out['code']}, expected 0")
        try:
            with open(out["path"]) as handle:
                text = handle.read()
            report = json.loads(text)
        except (OSError, ValueError) as exc:
            results.append({"failures": failures + [f"{command.name}: "
                                                    f"unreadable report ({exc})"],
                            "digest": None, "summary": {}})
            continue
        failures += command.check(report, context)
        field_bytes = None
        if command.writes_field:
            path = out["path"] + ".field"
            with open(path, "rb") as handle:
                field_bytes = handle.read()
            copy = path + ".roundtrip"
            reports.save_field(reports.load_field(path), copy)
            with open(copy, "rb") as handle:
                if handle.read() != field_bytes:
                    failures.append(f"{command.name}: .field does not "
                                    "round-trip bit-exactly through load_field")
        res = report.get("results", {})
        summary = {k: res[k] for k in ("level", "iterations", "restarts",
                                       "residual", "mp_level_upper_bound")
                   if k in res}
        results.append({"failures": failures, "summary": summary,
                        "digest": report_digest(text, field_bytes)})
    return results


def environment():
    import numpy
    import scipy
    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "threads_pinned": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    import logchoquard.cli  # noqa: F401  (the import is part of set-up)
    from logchoquard.config import load_config
    for command in workload.commands:
        load_config(os.path.join(CONFIGS, command.config), command.name,
                    seed=args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    sys.stdout = sys.stderr     # nothing else goes down the parent's pipe

    tracer = tracing.Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            try:
                with tracer.span("pass") as pass_span:
                    wall, outputs = run_pass(workload, args.seed, args.workdir,
                                             tracer)
            finally:
                tracer.uninstall()
            profile = tracer.aggregate(pass_span)
        else:
            wall, outputs = run_pass(workload, args.seed, args.workdir, None)
            profile = None
        passes.append({"wall_s": wall, "traced": traced, "profile": profile,
                       "commands": outputs,
                       "checks": check_pass(workload, outputs)})
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        need_traced = tracer is not None and len(passes) < 2
        if not need_traced and elapsed + per_pass > args.seconds:
            break

    spans_file = None
    if tracer is not None:
        spans_file = os.path.join(os.path.dirname(args.workdir),
                                  f"spans-{args.workload}.tsv")
        tracer.write(spans_file)
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "environment": environment(),
        "spans_file": spans_file,
    }
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
