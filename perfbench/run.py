#!/usr/bin/env python3
"""Benchmark of the monodromy command-line pipelines and of a library sweep.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

The program under test is the ``src`` directory next to this one; every job
runs it in a fresh process, from two closed-loop clients pinned to a CPU
each, and every time is scaled by a reference work run on the same CPU.
Every output is checked against an answer computed by ``corpus.py``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import corpus
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(SRC))

RUN_BUDGET_S = 170.0  # a run must end within 180 s
JOB_TIMEOUT_S = 120.0
SETUP_SPAWNS = 5  # before the passes and again after them


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it cannot be imported)."""


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class CliJob:
    name: str
    make: tuple  # monodromy subcommand that prints the input tuple, run in set-up
    args: tuple  # monodromy subcommand reading the tuple on stdin
    expect: dict  # "KEY: value" lines the report must contain


def _xv_orthogonal(order: int) -> dict:
    return {
        "CONCLUSION": "OrthogonalBig(KerSpinor)",
        "EXACT_ORDER": str(order),
        "EXACT_CONTAINS_DERIVED": "yes",
        "EXACT_CLASS": "KerSpinor",
        "AGREEMENT": "yes",
    }


def _xv_symplectic(order: int) -> dict:
    return {
        "CONCLUSION": "FullSp",
        "EXACT_ORDER": str(order),
        "EXACT_CONTAINS_DERIVED": "yes",
        "AGREEMENT": "yes",
    }


# The twist family generates the spinor kernel, of index 2 in O(V):
# |O(5,5)|/2 = 9360000 and |O+(4,7)|/2 = 112896, the orders the tests pin.
O5_5 = corpus.o_order(5, 5) // 2
O4_7 = corpus.o_order(4, 7, +1) // 2
O4_5 = corpus.o_order(4, 5, +1) // 2

def _twist(roots: str, p: int) -> tuple:
    return ("twist-family", "--roots", roots, "--prime", str(p))


def _hyperelliptic(genus: int, p: int) -> tuple:
    return ("hyperelliptic", "--genus", str(genus), "--prime", str(p))


def _order(genus: int, p: int) -> dict:
    return {"ORDER": str(corpus.sp_order(2 * genus, p))}


# The cross-validation jobs spend 66-96 % of their time building the derived
# subgroup (ROADMAP item 2); the order jobs spend all of theirs building
# stabilizer chains over 5^6 and 3^8 vectors and build no derived subgroup
# (ROADMAP item 3, and the jobs item 2 should leave unchanged).
CLI_JOBS = [
    CliJob("xv-O5-5", _twist("2,3", 5), ("cross-validate", "--r", "2"), _xv_orthogonal(O5_5)),
    CliJob("xv-O4-7", _twist("2", 7), ("cross-validate", "--r", "2"), _xv_orthogonal(O4_7)),
    CliJob("xv-Sp6-3", _hyperelliptic(3, 3), ("cross-validate", "--r", "1"),
           _xv_symplectic(corpus.sp_order(6, 3))),
    CliJob("order-Sp6-5", _hyperelliptic(3, 5), ("order",), _order(3, 5)),
    CliJob("order-Sp8-3", _hyperelliptic(4, 3), ("order",), _order(4, 3)),
]
SMOKE_CLI_JOBS = [
    CliJob("xv-O4-5", _twist("2", 5), ("cross-validate", "--r", "2"), _xv_orthogonal(O4_5)),
    CliJob("order-Sp2-3", _hyperelliptic(1, 3), ("order",), _order(1, 3)),
]

# sweep-lib: job counts; job_s.1 to job_s.5 are the mean times of its job groups
SWEEP_CONV_JOBS = 100
SWEEP_XVAL_PER_SPACE = 50
# Each sweep process takes the next of these corpora, all made from --seed.  A
# run makes 3 or 4 sweep processes, so its medians average over as many
# corpora: with one corpus per run, the group means moved 8-12 % from seed
# to seed with the random generator sets alone.
SWEEP_CORPORA = 6
SMOKE_SWEEP = (7, 1, corpus.SWEEP_SPACES[:3])
SWEEP_SLOTS = ("conv", *(space[0] for space in corpus.SWEEP_SPACES))

WORKLOADS = ("cli", "sweep-lib")

# Closed-loop clients running side by side, each pinned to its own CPU of the
# 2-CPU machine the benchmark was tuned on.  The host's speed drifts
# independently on each CPU, so two clients sample it twice as often as one.
CLIENTS = 2

# Every time but setup_s is scaled by REF_S over the time of a fixed
# reference work (``child.py reference``) run on the same CPU around it:
# between the CLI jobs, and inside the sweep process between its jobs.  This
# cancels the host's drift: the times reported are those of a host on which
# one repetition of the reference takes REF_S, about its time on the machine
# the benchmark was tuned on.
REF_S = 0.02
REF_REPS = 8


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    code: int
    out: str
    err: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


def run_process(argv: list[str], stdin_text: str = "", timeout_s: float = JOB_TIMEOUT_S) -> Proc:
    """Run one child to completion; CPU time and peak RSS come from its wait4 rusage."""
    if timeout_s <= 0:
        return Proc(-1, "", "no time left in the run", 0.0, 0.0, 0.0, True)
    with tempfile.TemporaryFile(dir=WORK) as err_file:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err_file
        )
        expired = threading.Event()

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        status = None
        try:
            try:
                proc.stdin.write(stdin_text.encode())
                proc.stdin.close()
            except BrokenPipeError:
                pass
            out = proc.stdout.read().decode(errors="replace")
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:
                proc.kill()
                proc.wait()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read().decode(errors="replace")
    return Proc(
        proc.returncode,
        out,
        err,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        expired.is_set(),
    )


def _child(*args: str) -> list[str]:
    return [PY, str(HERE / "child.py"), *args]


def check_program() -> None:
    """Fail unless ``monodromy.cli`` imports from ``src``; this also fills its bytecode cache."""
    probe = run_process([PY, "-c", "import monodromy.cli; print(monodromy.cli.__file__)"])
    if probe.code != 0:
        raise BenchError(f"cannot import monodromy.cli:\n{probe.err}")
    if Path(probe.out.strip()).resolve() != (SRC / "monodromy" / "cli.py").resolve():
        raise BenchError(f"monodromy.cli resolves to {probe.out.strip()}, not to {SRC}")


def measure_reference() -> float:
    """Median time of one repetition of the reference work, in a fresh process."""
    r = run_process(_child("reference", str(REF_REPS)))
    if r.code != 0:
        raise BenchError(f"the reference work failed:\n{r.err}")
    return statistics.median(json.loads(r.out))


def measure_setup(spawns: int) -> list[float]:
    """Times from spawning an interpreter to the end of ``import monodromy.cli``."""
    times = []
    for _ in range(spawns):
        r = run_process([PY, "-c", "import monodromy.cli"])
        if r.code != 0:
            raise BenchError(f"cannot import monodromy.cli:\n{r.err}")
        times.append(r.wall_s)
    return times


# ---------------------------------------------------------------------------
# one pass over a workload's jobs


@dataclass
class JobResult:
    slot: str
    seconds: float | None
    ok: bool
    detail: str = ""
    scale: float = 1.0  # host-speed factor for ``seconds``


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    rss_mb: float
    jobs: list[JobResult]
    dumps: list[dict]
    scale: float = 1.0  # host-speed factor for wall_s and cpu_s


def _report_lines(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check_cli(job: CliJob, r: Proc) -> tuple[bool, str]:
    if r.timed_out:
        return False, "timed out"
    if r.code != 0:
        return False, f"exit {r.code}: {r.err.strip()[-300:]}"
    got = _report_lines(r.out)
    wrong = [f"{k}: {got.get(k)!r} != {v!r}" for k, v in job.expect.items() if got.get(k) != v]
    return not wrong, "; ".join(wrong)


def cli_pass(jobs: list[CliJob], inputs: dict, seed: int, deadline: float, trace_dir: str | None) -> Pass:
    results, dumps = [], []
    cpu = rss = 0.0
    for job in jobs:
        args = ("--seed", str(seed), *job.args)
        if trace_dir is None:
            argv = [PY, "-m", "monodromy.cli", *args]
        else:
            span_path = os.path.join(trace_dir, f"{job.name}.json")
            argv = _child("cli", span_path, *args)
        r = run_process(argv, inputs[job.name], min(JOB_TIMEOUT_S, deadline - perf_counter()))
        ok, detail = check_cli(job, r)
        results.append(JobResult(job.name, r.wall_s, ok, detail))
        cpu += r.cpu_s
        rss = max(rss, r.rss_mb)
        if trace_dir is not None and r.code == 0:
            with open(span_path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
    return Pass(sum(j.seconds for j in results), cpu, rss, results, dumps)


def check_sweep_job(job: dict, obs: dict) -> tuple[bool, str]:
    if "error" in obs:
        return False, obs["error"]
    if job["kind"] == "conv":
        n = len(job["matrices"][0])
        want = job["expected_rank"]
        if obs["rank"] != want or obs["predicted"] != want:
            return False, f"rank {obs['rank']}, predicted {obs['predicted']}, expected {want}"
        if obs["back_rank"] != n:
            return False, f"convolving back gave rank {obs['back_rank']}, expected {n}"
        if obs["order"] < 1 or job["gl_order"] % obs["order"]:
            return False, f"order {obs['order']} does not divide |GL| = {job['gl_order']}"
        return True, ""
    order = obs["order"]
    if not obs["agreement"]:
        return False, f"certificate {obs['conclusion']} refuted by the exact computation"
    if order < 1 or job["full_order"] % order:
        return False, f"order {order} does not divide |isometry group| = {job['full_order']}"
    if obs["derived"] and order % job["derived_order"]:
        return False, f"contains the derived subgroup but order {order} is not a multiple of it"
    if obs["conclusion"] == "FullSp" and order != job["full_order"]:
        return False, f"FullSp certified but the order is {order}"
    return True, ""


def _sweep_slot(job: dict) -> str:
    return "conv" if job["kind"] == "conv" else job["space"]


def sweep_pass(jobs: list[dict], corpus_path: str, deadline: float, trace_dir: str | None) -> Pass:
    args = ["sweep", corpus_path]
    if trace_dir is not None:
        span_path = os.path.join(trace_dir, "sweep.json")
        args.append(span_path)
    r = run_process(_child(*args), timeout_s=deadline - perf_counter())
    dumps = []
    wall_s, cpu_s, scale = r.wall_s, r.cpu_s, 1.0
    if r.code == 0 and not r.timed_out:
        out = json.loads(r.out.strip().splitlines()[-1])
        results = []
        for job, obs in zip(jobs, out["jobs"]):
            ok, detail = check_sweep_job(job, obs)
            results.append(JobResult(_sweep_slot(job), obs["seconds"], ok, detail, REF_S / obs.get("ref", REF_S)))
        refs = [obs["ref"] for obs in out["jobs"] if "ref" in obs]
        if refs:
            # the worker's own reference runs are CPU-bound: take them out of both times
            wall_s -= out["reference_s"]
            cpu_s -= out["reference_s"]
            scale = REF_S / statistics.fmean(refs)
        if trace_dir is not None:
            with open(span_path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
    else:
        why = "timed out" if r.timed_out else f"exit {r.code}: {r.err.strip()[-300:]}"
        results = [JobResult(_sweep_slot(job), None, False, f"sweep process failed: {why}") for job in jobs]
    return Pass(wall_s, cpu_s, r.rss_mb, results, dumps, scale)


def closed_loops(tasks: list, seconds: float, deadline: float, bracket: bool) -> list[Pass]:
    """Run ``CLIENTS`` closed loops side by side over ``tasks``, a list of (name, callable).

    Client c is pinned to a CPU of its own and starts at task
    c * len(tasks) // CLIENTS, going round the list, so the clients mostly run
    different tasks at a time.  Each client makes one whole round, then starts
    a task only while the task's last time still fits in ``seconds``.  With
    ``bracket``, every task is followed by the reference work, and its pass
    is scaled by REF_S over the mean of the reference times before and after
    it; tasks that measure the reference themselves run without.
    """
    start = perf_counter()
    cpus = sorted(os.sched_getaffinity(0))
    done: list[list[Pass]] = [[] for _ in range(CLIENTS)]
    errors: list[BaseException] = []

    def client(c: int) -> None:
        last: dict[str, float] = {}
        first = c * len(tasks) // CLIENTS
        k = first
        try:
            # on Linux this pins the calling thread, and the processes it starts inherit it
            os.sched_setaffinity(0, {cpus[c % len(cpus)]})
            ref = measure_reference() if bracket else None
            while True:
                name, run = tasks[k % len(tasks)]
                expected = last.get(name, 0.0)
                if k - first >= len(tasks) and perf_counter() - start + expected > seconds:
                    return
                if perf_counter() + expected > deadline:
                    return
                result = run()
                if bracket:
                    after = measure_reference()
                    result.scale = 2 * REF_S / (ref + after)
                    ref = after
                last[name] = result.wall_s
                done[c].append(result)
                k += 1
        except BaseException as exc:  # re-raised in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return [p for passes in done for p in passes]


# ---------------------------------------------------------------------------
# metrics


def _e2e_units(slots: int) -> dict:
    units = {
        "setup_s": "s",
        "wall_s": "s",
        "cpu_s": "s",
        "peak_rss_mb": "MB",
        "ok_frac": "ratio",
        "job_s.p50": "s",
        "job_s.p95": "s",
    }
    units.update({f"job_s.{i}": "s" for i in range(1, slots + 1)})
    return units


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18] if len(values) > 1 else values[0]


def cli_metrics(samples: list[Pass], jobs: list[CliJob]) -> dict:
    """Each job's median over its runs; a pass over all jobs is the sum of those medians."""
    wall, cpu = [], []
    for job in jobs:
        runs = [p for p in samples if p.jobs[0].slot == job.name]
        wall.append(statistics.median(p.wall_s * p.scale for p in runs))  # one job per pass
        cpu.append(statistics.median(p.cpu_s * p.scale for p in runs))
    metrics = {"wall_s": sum(wall), "cpu_s": sum(cpu), "job_s.p50": statistics.median(wall), "job_s.p95": _p95(wall)}
    metrics.update({f"job_s.{i}": t for i, t in enumerate(wall, 1)})
    return metrics


def sweep_metrics(passes: list[Pass]) -> dict:
    """Medians over the sweep processes; percentiles over every job of every process."""
    times = [j.seconds * j.scale for p in passes for j in p.jobs if j.seconds is not None]
    metrics = {
        "wall_s": statistics.median(p.wall_s * p.scale for p in passes),
        "cpu_s": statistics.median(p.cpu_s * p.scale for p in passes),
    }
    if times:
        metrics["job_s.p50"] = statistics.median(times)
        # p95 leaves 15 of a process's 300 jobs beyond it and falls inside the
        # cluster of costly O5(5) jobs, where p90 sat on the cluster's edge
        metrics["job_s.p95"] = _p95(times)
    for i, slot in enumerate(SWEEP_SLOTS, 1):
        # mean, not median: each group mixes cheap and costly jobs in a fixed
        # proportion, and a median would sit on the boundary between them
        means = [
            statistics.fmean(ts)
            for p in passes
            if (ts := [j.seconds * j.scale for j in p.jobs if j.slot == slot and j.seconds is not None])
        ]
        if means:
            metrics[f"job_s.{i}"] = statistics.median(means)
    return metrics


# ---------------------------------------------------------------------------
# a run


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, work: str) -> dict:
    deadline = perf_counter() + RUN_BUDGET_S
    if name == "sweep-lib":
        conv, per_space, spaces = SMOKE_SWEEP if smoke else (SWEEP_CONV_JOBS, SWEEP_XVAL_PER_SPACE, corpus.SWEEP_SPACES)
        corpora = []
        for i in range(SWEEP_CORPORA):
            jobs = corpus.sweep_corpus(seed * SWEEP_CORPORA + i, conv, per_space, spaces)
            path = os.path.join(work, f"corpus{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(jobs, fh)
            corpora.append((jobs, path))
        turn = itertools.count()

        def one_pass(trace_dir, i=0):
            return sweep_pass(*corpora[i], deadline, trace_dir)

        tasks = [("sweep", lambda: one_pass(None, next(turn) % SWEEP_CORPORA))]
        slots = len(SWEEP_SLOTS)
    else:
        cli_jobs = SMOKE_CLI_JOBS if smoke else CLI_JOBS
        inputs = {}
        for job in cli_jobs:
            made = run_process([PY, "-m", "monodromy.cli", *job.make])
            if made.code != 0:
                raise BenchError(f"cannot make the input tuple of {job.name}:\n{made.err}")
            inputs[job.name] = made.out

        def one_pass(trace_dir, only=cli_jobs):
            return cli_pass(only, inputs, seed, deadline, trace_dir)

        tasks = [(job.name, lambda job=job: one_pass(None, [job])) for job in cli_jobs]
        slots = len(cli_jobs)

    if trace:
        # one client: the traced pass and the untraced one it is compared with
        plain = one_pass(None)
        trace_dir = os.path.join(work, "spans")
        os.makedirs(trace_dir, exist_ok=True)
        traced = one_pass(trace_dir)
        passes = [plain, traced]
        metrics = spans.aggregate(traced.dumps, traced.wall_s)
        metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
        units = dict(spans.metric_names())
    else:
        setup_times = measure_setup(1 if smoke else SETUP_SPAWNS)
        passes = closed_loops(tasks, seconds, deadline, bracket=name != "sweep-lib")
        if not smoke:
            # set-up is sampled on both sides of the passes, so a slow stretch
            # of a shared machine does not decide its median alone
            setup_times += measure_setup(SETUP_SPAWNS)
        metrics = sweep_metrics(passes) if name == "sweep-lib" else cli_metrics(passes, cli_jobs)
        jobs_run = [j for p in passes for j in p.jobs]
        metrics.update({
            # not scaled: interpreter start-up did not slow with the reference
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": max(p.rss_mb for p in passes),
            "ok_frac": sum(j.ok for j in jobs_run) / len(jobs_run),
        })
        units = _e2e_units(slots)

    jobs = [j for p in passes for j in p.jobs]
    failures = [j for j in jobs if not j.ok]
    for j in failures[:10]:
        print(f"{name}: FAILED {j.slot}: {j.detail}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items() if k in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload on tiny inputs, no timing bound")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        if not (SRC / "monodromy" / "cli.py").is_file():
            raise BenchError(f"no program to measure: {SRC / 'monodromy'} is missing")
        WORK.mkdir(exist_ok=True)
        check_program()
        with tempfile.TemporaryDirectory(dir=WORK) as work:
            if not args.smoke:
                result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False, work)
            else:
                start = perf_counter()
                result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
                for name in WORKLOADS:
                    one = run_workload(name, args.seed, 0, bool(args.trace), True, work)
                    print(f"smoke {name}: {one['attempted'] - one['failed']}/{one['attempted']} ok")
                    result["correct"] &= one["correct"]
                    result["attempted"] += one["attempted"]
                    result["failed"] += one["failed"]
                print(f"smoke: {perf_counter() - start:.2f} s")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
