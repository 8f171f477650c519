"""Benchmark of the mvpolytopes package: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 mvbench/run.py --workload assemble --seed 1 --seconds 30 --trace 0
    python3 mvbench/run.py --workload all

``--workload`` is ``assemble``, ``multiplicity``, ``catalog`` or ``all``; the
last runs each of the three in a fresh process and prints one table.  The
package is imported from the checkout's ``src`` directory and never edited.

With ``--trace 0`` the run measures end-to-end metrics with tracing off.  With
``--trace 1`` it wraps each layer's public functions (see spans.py), runs a
fixed number of ops for exact counts, then reruns those ops untraced in a
child process to measure the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

# one thread: keep numpy's thread pools from competing with the client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("assemble", "multiplicity", "catalog")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # kept for confirming claims; do not tune against it
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
MODULES = ("mvpolytopes", "mvpolytopes.serialize", "mvpolytopes.draw")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run exactly this many ops untraced, set up once (the untraced
    # twin of a traced run)
    ap.add_argument("--ops", type=int, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed(fn):
    """Run ``fn`` once between two speed probes.  Returns its result, its wall
    time and its reference time, in seconds."""
    before = speed.probe()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, wall * speed.scale((before + speed.probe()) / 2)


def import_seconds() -> tuple[float, float]:
    """Median wall and reference time to import the package in a fresh
    interpreter, timed from outside it."""
    code = (
        "import time; t = time.perf_counter(); "
        + "; ".join(f"import {m}" for m in MODULES)
        + "; print(time.perf_counter() - t)"
    )
    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        _, wall, ref = timed(
            lambda: subprocess.run(
                [sys.executable, "-c", code],
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
                check=True,
            )
        )
        walls.append(wall)
        refs.append(ref)
    return statistics.median(walls), statistics.median(refs)


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy

    from mvpolytopes import _kernels

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": _kernels.resolve_backend(),
        "numba_imports": has_numba,
        "git_sha": git_sha(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(sorted_ms: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    idx = min(len(sorted_ms) - 1, max(0, int(round(q * len(sorted_ms))) - 1))
    return sorted_ms[idx]


def run_ops(ops, cycle: int, seconds: float | None, count: int | None):
    """Run ops one by one until the deadline passes at a cycle boundary (and
    at least one cycle has run), or for exactly ``count`` ops.  The speed
    probe runs before the first op, between ops every ``PROBE_EVERY_S``
    seconds, and after the last op; each op's time is scaled by the mean of
    the probes on either side of it.  Returns (durations, reference
    durations, failures, elapsed), times in seconds."""
    durations: list[float] = []
    near: list[int] = []  # index of the last probe before each op
    failures: list[str] = []
    clock = time.perf_counter
    probes = [speed.probe()]
    start = last_probe = clock()
    deadline = start + seconds if seconds is not None else None
    limit = min(count, len(ops)) if count is not None else len(ops)
    for i in range(limit):
        if deadline is not None and i and i % cycle == 0 and clock() >= deadline:
            break
        if clock() - last_probe >= speed.PROBE_EVERY_S:
            probes.append(speed.probe())
            last_probe = clock()
        op = ops[i]
        t0 = clock()
        try:
            bad = op.run()
        except Exception as e:  # an op that raises counts as failed; the run goes on
            bad = f"{type(e).__name__}: {e}"
        durations.append(clock() - t0)
        near.append(len(probes) - 1)
        if bad is not None:
            failures.append(f"{op.describe()}: {bad}")
    probes.append(speed.probe())
    elapsed = clock() - start
    if deadline is not None and len(durations) == len(ops):
        print(f"warning: all {len(ops)} generated ops ran before the deadline", file=sys.stderr)
    reference = [
        d * speed.scale((probes[k] + probes[k + 1]) / 2) for d, k in zip(durations, near)
    ]
    return durations, reference, failures, elapsed


def result_line(durations, failures, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": not failures and bool(durations),
            "attempted": len(durations),
            "failed": len(failures),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
    )


def report(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")


def run_untraced(workload, seed: int, seconds: float, fixed_ops: int | None) -> None:
    from workloads import fresh_group, shared_group

    # The first set-up is kept: its groups are the process-wide ones the ops
    # use.  The repeats build fresh groups and regenerate the inputs.  An
    # untraced twin (fixed_ops) sets up once; its set-up time is not used.
    ops, wall, ref = timed(lambda: workload.build(seed, shared_group))
    setups = [(wall, ref)]
    if fixed_ops is None:
        for _ in range(SETUP_REPEATS - 1):
            _, wall, ref = timed(lambda: workload.build(seed, fresh_group))
            setups.append((wall, ref))
        imports = import_seconds()
    else:
        imports = (0.0, 0.0)
    setup_wall = imports[0] + statistics.median(w for w, _ in setups)
    setup_ref = imports[1] + statistics.median(r for _, r in setups)

    durations, reference, failures, elapsed = run_ops(
        ops, workload.cycle, seconds if fixed_ops is None else None, fixed_ops
    )
    n = len(durations)
    wall_ms = sorted(d * 1000 for d in durations)
    ref_ms = sorted(d * 1000 for d in reference)
    metrics = {
        "setup_s": (setup_ref, "s"),
        "ops_per_s": (n / sum(reference), "1/s"),
        "op_p50_ms": (percentile(ref_ms, 0.50), "ms"),
        "op_p90_ms": (percentile(ref_ms, 0.90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"# env {json.dumps(environment(seed))}")
    report(
        f"workload {workload.name}: {n} ops in {elapsed:.3f} s, closed loop, one client; "
        f"{n - int(round(0.9 * n))} samples beyond p90"
        + ("" if n >= 100 else " (fewer than 100 ops: p90 has under ten samples beyond it)")
        + "; times at the reference speed (speed.py)",
        {
            **metrics,
            "failed_frac": (len(failures) / n if n else 1.0, "ratio"),
            "speed_factor": (sum(reference) / sum(durations), "ratio"),
        },
    )
    report(
        "the same, wall clock:",
        {
            "setup_s": (setup_wall, "s"),
            "ops_per_s": (n / sum(durations), "1/s"),
            "op_p50_ms": (percentile(wall_ms, 0.50), "ms"),
            "op_p90_ms": (percentile(wall_ms, 0.90), "ms"),
        },
    )
    for line in failures[:5]:
        print(f"failed: {line}", file=sys.stderr)
    print(result_line(durations, failures, metrics))


def run_traced(workload, seed: int, seconds: float) -> None:
    import spans
    from workloads import shared_group

    env = environment(seed)
    cycles = max(1, round(seconds * workload.traced_cycles_per_s))
    count = cycles * workload.cycle
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops = workload.build(seed, shared_group)
        setup_weyl_s = tracer.layer_self_s()["weyl"]
        setup_word_data = tracer.calls["weyl.word_data"]
        tracer.reset()
        durations, reference, failures, _ = run_ops(ops, workload.cycle, None, count)
    finally:
        tracer.uninstall()
    traced_s = sum(durations)
    traced_ref_s = sum(reference)

    twin = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
         "--seed", str(seed), "--ops", str(len(durations)), "--trace", "0"],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if twin.returncode != 0:
        sys.stderr.write(twin.stderr)
        raise RuntimeError(f"untraced twin run exited with {twin.returncode}")
    twin_result = json.loads(twin.stdout.strip().splitlines()[-1])
    untraced_ref_s = twin_result["attempted"] / twin_result["metrics"]["ops_per_s"]["value"]
    metrics = spans.layer_metrics(
        tracer, traced_s, setup_weyl_s, setup_word_data, traced_ref_s / untraced_ref_s - 1.0
    )
    print(f"# env {json.dumps(env)}")
    print(
        f"trace {workload.name}: {len(durations)} ops in {traced_ref_s:.3f} s traced, "
        f"{untraced_ref_s:.3f} s untraced, at the reference speed (speed.py)"
    )
    print(
        f"numba-deletion gate input (ROADMAP.md open item 1, delete if < 0.05): "
        f"kernels.share = {metrics['kernels.share'][0]:.4f} on {workload.name}"
    )
    report("per-layer metrics (ops only unless named otherwise):", metrics)
    print("spans with the most self time (key, calls, self s):")
    for key, calls, s in tracer.top_spans():
        print(f"  {key:<44} {calls:>10} {s:>10.4f}")
    if twin_result["failed"]:
        failures.append(f"untraced twin: {twin_result['failed']} ops failed")
    for line in failures[:5]:
        print(f"failed: {line}", file=sys.stderr)
    print(result_line(durations, failures, metrics))


def run_all(args) -> int:
    """Each workload in a fresh process, so one workload's caches never serve another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    if not args.trace:
        names = list(results[WORKLOAD_NAMES[0]]["metrics"])
        print(f"\n{'workload':<14}" + "".join(f"{n:>14}" for n in names + ["failed_frac"]))
        units = [results[WORKLOAD_NAMES[0]]["metrics"][n]["unit"] for n in names] + ["ratio"]
        print(f"{'(unit)':<14}" + "".join(f"{u:>14}" for u in units))
        for name, res in results.items():
            vals = [res["metrics"][n]["value"] for n in names] + [res["failed"] / res["attempted"]]
            print(f"{name:<14}" + "".join(f"{v:>14.6g}" for v in vals))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mvpolytopes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import mvpolytopes

    if Path(mvpolytopes.__file__).resolve().parent != SRC / "mvpolytopes":
        print(f"error: imported mvpolytopes from {mvpolytopes.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        run_traced(workload, args.seed, args.seconds)
    else:
        run_untraced(workload, args.seed, args.seconds, args.ops)
    return 0


if __name__ == "__main__":
    sys.exit(main())
