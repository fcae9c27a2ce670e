#!/usr/bin/env python3
"""End-to-end benchmark of the markov-atlas command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

A workload is a seeded list of ops; an op is one in-process
`markov_atlas.cli.main([..., "--json"])` call on generated input files.
One client runs the ops in a closed loop (one op at a time, one process,
no threads).  It makes whole passes over the list, at least one, and
starts another only while it is expected to end within --seconds, so
every run measures the same mix of ops.  The first run of an op checks
its output; later runs must reproduce it byte for byte.  The clock
stops while the harness checks an output.

Every time the benchmark reports is taken at a reference speed (see
`Speed`): the machines it runs on drift in speed by up to twofold from
one second to the next, and the reference cancels that drift.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the
time on untraced passes and half on traced passes (see tracing.py), and
reports per-layer metrics per pass plus the tracing overhead.
--workload all runs every workload, each in a fresh process.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
human-readable report.  The exit code is 0 only when every output was
correct.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from typing import Dict, List, Optional, Tuple

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# The benchmark always runs with the library's default caps and kernel
# selection; whatever these held is recorded, then cleared.
CLEARED_ENV = ("MARKOV_ATLAS_LIMITS", "MARKOV_ATLAS_PURE")
SETUP_REPEATS = 11
MIN_OPS = 100  # per pass, so op_p90_s has at least 10 runs beyond it
WORKLOADS = ("evidence", "connect-forest", "connect-cyclic", "sample")
# A cap-probe op that runs longer than this is stopped and reported as
# timed out (it would be once the cap is lifted but the cycle base case
# is not yet replaced: C8 at total 8 took over 9 minutes).
PROBE_TIMEOUT_S = 10.0


def _rank(xs: List[float], q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


# ---------------------------------------------------------------------
# reference speed

# Pure-Python work of the kind the library does (dict updates, tuples,
# sorting), timed next to every measurement.  Its result is a unit of
# measure: it must never change, or times before and after the change
# cannot be compared.
def _reference() -> int:
    acc: Dict[int, int] = {}
    pairs = []
    for i in range(4000):
        k = (i * 7919) % 613
        acc[k] = acc.get(k, 0) + (i ^ k)
        pairs.append((k, i & 31))
    pairs.sort()
    return len(acc) + sum(a for a, _ in pairs[:50])


REF_NOMINAL_S = 0.002  # the reference's time at the reference speed
REF_EVERY_S = 0.05     # sample the reference at most this often
REF_NEAR_S = 0.1       # samples this close to a measurement scale it


class Speed:
    """Samples of the reference's time, for scaling measured times.

    The machine's speed drifts: on the 2-vCPU virtual machine the
    benchmark was tuned on, a fixed pure-Python loop ran up to twice as
    long in some seconds as in others, for minutes at a time, and a
    pass over an op list with it.  Scaling each time by REF_NOMINAL_S /
    the median reference time around it took the pass-to-pass
    variation of connect-cyclic from 21% to 3.5% (coefficient of
    variation).  The reference is harness code, so a change to the
    library moves the scaled times as much as the raw ones.
    """

    def __init__(self):
        self.samples: List[float] = []  # reference times
        self.ends: List[float] = []     # when each sample ended
        self.last = -math.inf

    def sample(self):
        # a collection of the ops' garbage must not land in the sample
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _reference()
            self.last = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(self.last - t0)
        self.ends.append(self.last)

    def mark(self) -> int:
        """Sample if none was taken lately; returns the number of
        samples so far, which places the measurement that follows."""
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()
        return len(self.samples)

    def close(self):
        """Take the samples after the last measurement."""
        for _ in range(3):
            self.sample()

    def scale(self, mark: int) -> float:
        """Factor that takes a time measured after `mark` to the
        reference speed: REF_NOMINAL_S / the median of the last sample
        before the measurement, the first after it, and every sample
        within REF_NEAR_S of these two."""
        lo = bisect.bisect_left(self.ends, self.ends[mark - 1] - REF_NEAR_S)
        hi = bisect.bisect_right(self.ends, self.ends[mark] + REF_NEAR_S)
        return REF_NOMINAL_S / statistics.median(self.samples[lo:hi])


# ---------------------------------------------------------------------
# set-up

def _time_import() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import markov_atlas.cli"],
                   env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def _setup(workloads, name: str, seed: int, workdir: str):
    """setup_s = median time for a fresh interpreter to import the CLI
    + median time to generate the inputs in memory, over SETUP_REPEATS
    repeats, each taken at the reference speed; then the input files
    are written once.  Also returns a note with the parts, the raw sum
    and the time of the one write.

    Writing the files is left out of setup_s: on the ext4 disk of the
    virtual machine the benchmark was tuned on, creating the 588 files
    of connect-cyclic took from 0.02 s to 0.4 s depending on what the
    file system had done shortly before, which no change to the program
    can move and no reference cancels.
    """
    speed = Speed()
    imports, gens = [], []
    d = os.path.join(workdir, "inputs")
    for _ in range(SETUP_REPEATS):
        mark = speed.mark()
        imports.append((_time_import(), mark))
        mark = speed.mark()
        t0 = time.perf_counter()
        workloads.generate(name, seed, d, save=False)
        gens.append((time.perf_counter() - t0, mark))
    speed.close()
    os.makedirs(d)
    t0 = time.perf_counter()
    wl = workloads.generate(name, seed, d)
    write_s = time.perf_counter() - t0

    def median(xs, scaled=True):
        return statistics.median(t * speed.scale(k) if scaled else t
                                 for t, k in xs)
    imp, gen = median(imports), median(gens)
    raw = median(imports, False) + median(gens, False)
    return wl, imp + gen, (f"medians of {SETUP_REPEATS}: import {imp:.4g} "
                           f"+ generate {gen:.4g} (raw {raw:.4g}); "
                           f"generating and writing the files once took "
                           f"{write_s:.4g} raw")


# ---------------------------------------------------------------------
# running ops

class Measure:
    """Times and outcomes of the op runs of one phase, in run order."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.times: List[float] = []   # raw op time per run
        self.marks: List[int] = []     # Speed mark per run
        self.ok_runs: List[bool] = []
        self.walls: List[float] = []   # raw per pass, checking excluded
        self.failures: List[str] = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def ok(self) -> int:
        return sum(self.ok_runs)

    def scales(self) -> List[float]:
        return [self.speed.scale(k) for k in self.marks]

    def scaled(self) -> List[float]:
        """Op time per run at the reference speed."""
        return [t * f for t, f in zip(self.times, self.scales())]

    def latencies(self) -> List[float]:
        """Scaled op time per run; +inf for a failed run."""
        return [t if ok else math.inf
                for t, ok in zip(self.scaled(), self.ok_runs)]

    def per_op(self, n_ops: int) -> List[float]:
        """Median scaled time of each op over its runs."""
        xs = self.scaled()
        return [statistics.median(xs[k::n_ops]) for k in range(n_ops)]


def _run_op(cli, op) -> Tuple[object, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv + ["--json"])
        except Exception as exc:  # escaped the CLI's own error handling
            code = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return code, dt, out.getvalue(), err.getvalue()


def _judge(op, code, out: str, err: str) -> Optional[str]:
    """None if the op succeeded with a correct output, else the reason."""
    if code != 0:
        return f"exit {code}: {err.strip()[-300:]}"
    try:
        op.check(json.loads(out))
    except Exception as exc:  # any malformed output is a wrong answer
        return f"wrong output: {type(exc).__name__}: {exc}"
    return None


def _digest(out: str) -> str:
    return hashlib.sha1(out.encode()).hexdigest()


def _run_pass(cli, ops, reference: Dict[int, Optional[str]], m: Measure,
              tracer=None):
    """One pass over `ops`.  An op's first run is checked in full and
    its output digest kept in `reference`; later runs must match it."""
    check_s = 0.0
    t_pass = time.perf_counter()
    for k, op in enumerate(ops):
        mark = m.speed.mark()
        if tracer is not None:
            tracer.op = m.attempted
        code, dt, out, err = _run_op(cli, op)
        t0 = time.perf_counter()
        if k not in reference:
            reason = _judge(op, code, out, err)
            reference[k] = _digest(out) if reason is None else None
        elif reference[k] is None:
            reason = "failed on its first run"
        elif code != 0 or _digest(out) != reference[k]:
            reason = f"exit {code}, output differs from its first run"
        else:
            reason = None
        m.times.append(dt)
        m.marks.append(mark)
        m.ok_runs.append(reason is None)
        if reason is not None:
            m.failures.append(f"{' '.join(op.argv)}: {reason}")
        check_s += time.perf_counter() - t0
    m.walls.append(time.perf_counter() - t_pass - check_s)


def _run_phase(cli, ops, reference, seconds: float, tracer=None) -> Measure:
    """Passes over `ops`: at least one, and another only while the
    phase is expected to end within `seconds`."""
    m = Measure(Speed())
    t0 = time.perf_counter()
    while not m.walls or (time.perf_counter() - t0
                          + statistics.median(m.walls) <= seconds):
        _run_pass(cli, ops, reference, m, tracer)
    m.speed.close()
    return m


class ProbeTimeout(BaseException):
    """A cap-probe op ran past PROBE_TIMEOUT_S.  A BaseException, so
    the CLI's own error handling does not catch it."""


def _alarm(signum, frame):
    raise ProbeTimeout


def _cap_probe(cli, probe, tracer=None) -> Tuple[List[str], List[str]]:
    """Run the named cap ops once.  Each must fail on the table-total
    cap or, once that is fixed, succeed with a correct output; one that
    runs past PROBE_TIMEOUT_S is stopped and reported as timed out."""
    lines, unexpected = [], []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for op in probe:
            if tracer is not None:
                tracer.op = tracing.PROBE
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, PROBE_TIMEOUT_S)
                try:
                    code, dt, out, err = _run_op(cli, op)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except ProbeTimeout:
                code, dt = None, time.perf_counter() - t0
            if code is None:
                verdict = (f"passes the cap but timed out after "
                           f"{PROBE_TIMEOUT_S:g} s")
            elif code == 1 and "exceeds the cap" in err:
                verdict = "fails on the cap (expected at this commit)"
            else:
                reason = _judge(op, code, out, err)
                verdict = ("connects, output correct" if reason is None
                           else reason)
                if reason is not None:
                    unexpected.append(f"{' '.join(op.argv)}: {reason}")
            lines.append(f"cap probe {os.path.basename(op.argv[2])}: "
                         f"{verdict} ({dt:.4f} s)")
    finally:
        signal.signal(signal.SIGALRM, previous)
    return lines, unexpected


# ---------------------------------------------------------------------
# reports

def _environment(args, cleared: Dict[str, str], kernel: str) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "kernel": kernel, "python": platform.python_version(),
        "numpy": numpy_version, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "env_cleared": {k: cleared.get(k) for k in CLEARED_ENV},
    }


def _end_to_end(m: Measure, setup_s: float, setup_note: str):
    """The six end-to-end metrics and a note on each one's samples."""
    n, passes = m.attempted, len(m.walls)
    op_s, raw_s = sum(m.scaled()), sum(m.times)
    lat = m.latencies()
    metrics = {
        "ops_per_s": (m.ok / op_s, "ops/s"),
        "op_p50_s": (_rank(lat, 0.5), "s"),
        "op_p90_s": (_rank(lat, 0.9), "s"),
        "ok_frac": (m.ok / n, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    raw = [t if ok else math.inf for t, ok in zip(m.times, m.ok_runs)]
    notes = {
        "ops_per_s": f"{m.ok} correct op runs / {op_s:.3f} s of op time, "
                     f"{passes} passes (raw {m.ok / raw_s:.4g})",
        "op_p50_s": f"n={n} op runs (raw {_rank(raw, 0.5):.4g})",
        "op_p90_s": f"n={n} op runs, {n - math.ceil(0.9 * n)} beyond "
                    f"(raw {_rank(raw, 0.9):.4g})",
        "ok_frac": f"fail_frac {1 - m.ok / n:.4f} ({n - m.ok} of {n})",
        "peak_rss_mib": "ru_maxrss of this process",
        "setup_s": setup_note,
    }
    return metrics, notes


def _trace_report(workload: str, tracer, untraced: Measure, traced: Measure,
                  ops_per_pass: int):
    """Per-layer metrics and the report lines that go with them."""
    metrics = tracing.layer_metrics(tracer, len(traced.walls), ops_per_pass,
                                    traced.scales())
    lines = []
    missing = [n for n in tracing.EXPECTED_CALLS[workload]
               if not metrics[f"{n}.calls"][0]]
    for n in missing:
        print(f"warning: {n} was not called on {workload}", file=sys.stderr)
        lines.append(f"expected but not called: {n}")
    layer = tracing.REQUIRED_LAYER[workload]
    if not any(metrics[f"{n}.calls"][0] for n in tracing.NAMES
               if n.startswith(layer + ".")):
        raise tracing.TraceBlind(f"no {layer} call seen on {workload}")
    holds, verdict = tracing.self_time_verdict(workload, metrics)
    lines.append(verdict)
    # Overhead from each op's median time, untraced and traced.  It is
    # resolved when the middle half of the per-op ratios lies on one
    # side of 1, i.e. most ops moved the same way.
    before = untraced.per_op(ops_per_pass)
    after = traced.per_op(ops_per_pass)
    base = sum(before)
    over = sum(after) - base
    q1, _, q3 = statistics.quantiles([a / b for a, b in zip(after, before)],
                                     n=4)
    resolved = q1 > 1 or q3 < 1
    metrics.update({
        "trace.untraced_pass_s": (base, "s"),
        "trace.traced_pass_s": (base + over, "s"),
        "trace.overhead_s": (over, "s"),
        "trace.overhead_frac": (over / base, "ratio"),
        "trace.overhead_resolved": (int(resolved), "bool"),
        "trace.expected_uncalled": (len(missing), "count"),
        "trace.prediction_holds": (int(holds), "bool"),
    })
    lines.append(f"tracing overhead: {over:.3f} s per pass "
                 f"({over / base:+.1%} of {base:.3f} s untraced); per-op "
                 f"traced/untraced quartiles {q1:.3f}-{q3:.3f}: "
                 f"{'resolved' if resolved else 'unresolved'}")
    return metrics, lines


# ---------------------------------------------------------------------

def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Every workload in a fresh process, reports one after another."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        last = lines[-1] if lines else ""
        results[name] = json.loads(last) if last.startswith("{") else None
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "markov_atlas", "__init__.py")):
        print(f"error: no markov_atlas sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    cleared = {k: os.environ.pop(k) for k in CLEARED_ENV if k in os.environ}
    sys.path.insert(0, SRC)
    from markov_atlas import cli, fiber
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    tracer = None
    try:
        wl, setup_s, setup_note = _setup(workloads, args.workload,
                                         args.seed, workdir)
        if len(wl.ops) < MIN_OPS:
            raise RuntimeError(f"{args.workload} has only {len(wl.ops)} ops")
        print("# env " + json.dumps(_environment(args, cleared,
                                                 fiber.KERNEL_ID)))
        reference: Dict[int, Optional[str]] = {}
        if args.trace:
            m = _run_phase(cli, wl.ops, reference, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            tracer.active = True
            traced = _run_phase(cli, wl.ops, reference, args.seconds / 2,
                                tracer)
        else:
            m = _run_phase(cli, wl.ops, reference, args.seconds)
        probe_lines, unexpected = _cap_probe(cli, wl.cap_probe, tracer)
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(WORK)

    if tracer is None:
        phases = [m]
        metrics, notes = _end_to_end(m, setup_s, setup_note)
        lines = [f"{k:<14} {v:12.6g} {u:<6} {notes[k]}"
                 for k, (v, u) in metrics.items()]
    else:
        phases = [m, traced]
        metrics, lines = _trace_report(args.workload, tracer, m, traced,
                                       len(wl.ops))
        lines = [f"{k:<44} {v:14.6g} {u}" for k, (v, u) in metrics.items()
                 if v] + lines
    for line in probe_lines + lines:
        print(f"# {line}")
    failures = [f for p in phases for f in p.failures] + unexpected
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    attempted = sum(p.attempted for p in phases)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted - sum(p.ok for p in phases),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
