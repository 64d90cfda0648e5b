"""Processes the benchmark starts, each with the checkout's ``src`` on PYTHONPATH.

    python3 perfbench/child.py sweep CORPUS [SPANS]  the sweep-lib jobs, as JSON on stdout
    python3 perfbench/child.py cli SPANS ARG...      the monodromy CLI with spans recorded
    python3 perfbench/child.py reference REPS        times of the fixed reference work, as JSON

``sweep`` only reports what the library returned for each job; the checks
against expected answers happen in ``run.py``.  With a SPANS path, spans
are recorded around the library's public functions and written there.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

from spans import Recorder


# The jobs import the library's names when they run, after a Recorder may
# have replaced them with their traced wrappers.
def _conv_job(job: dict) -> dict:
    from monodromy import GeneratedGroup, Matrix, PuncturedTuple, group_order, middle_convolve, predict_rank
    from monodromy.convolution import INFINITY

    p = job["p"]
    t = PuncturedTuple(job["labels"], [Matrix(m, p) for m in job["matrices"]])
    out = middle_convolve(t, -1)
    data = t.local_data()
    infinity = data.pop(INFINITY)
    predicted = predict_rank(list(data.values()), infinity, -1)
    back = middle_convolve(out, -1)
    return {
        "rank": out.rank,
        "predicted": predicted,
        "back_rank": back.rank,
        "order": group_order(GeneratedGroup(t.matrices)),
    }


def _xval_job(job: dict) -> dict:
    from monodromy import FormSpace, Hypotheses, Matrix, cross_validate

    p = job["p"]
    space = FormSpace.from_gram(Matrix(job["gram"], p))
    gens = [Matrix(g, p) for g in job["generators"]]
    report = cross_validate(Hypotheses(space, gens, frozenset(job["s0"]), job["r"]))
    return {
        "agreement": report.agreement,
        "certified": report.certificate.certified,
        "conclusion": str(report.certificate.conclusion),
        "order": report.exact_order,
        "derived": report.exact_contains_derived,
    }


# With ``reference`` on, the sweep measures the host's speed itself: after
# every SWEEP_REF_EVERY_S of job time it runs SWEEP_REF_REPS repetitions of
# the reference work, and each job reports the mean reference time around
# it.  A sweep lasts about 20 s, too long for references taken only before
# and after it.
SWEEP_REF_EVERY_S = 0.5
SWEEP_REF_REPS = 2


def _sweep(corpus: list[dict], reference: bool) -> dict:
    import monodromy  # noqa: F401  (imported before the first job is timed)

    results, pending = [], []
    reference_s = since = 0.0

    def sample() -> float:
        nonlocal reference_s
        start = perf_counter()
        ref = statistics.median(_reference(SWEEP_REF_REPS))
        reference_s += perf_counter() - start
        return ref

    before = sample() if reference else None
    for i, job in enumerate(corpus):
        run = _conv_job if job["kind"] == "conv" else _xval_job
        start = perf_counter()
        try:
            obs = run(job)
        except Exception as exc:  # a failing job is reported, not fatal to the sweep
            obs = {"error": f"{type(exc).__name__}: {exc}"}
        obs["seconds"] = perf_counter() - start
        results.append(obs)
        pending.append(obs)
        since += obs["seconds"]
        if reference and (since >= SWEEP_REF_EVERY_S or i == len(corpus) - 1):
            after = sample()
            for o in pending:
                o["ref"] = (before + after) / 2
            before, pending, since = after, [], 0.0
    return {"jobs": results, "reference_s": reference_s}


def _reference(reps: int) -> list[float]:
    """Times of ``reps`` repetitions of fixed work that never touches ``monodromy``.

    Each repetition mixes what the library spends its time on: row reduction
    of small numpy matrices mod p, and a plain interpreter loop over ints.
    """
    from random import Random

    import numpy as np

    from corpus import rank_mod

    rng = Random(0)
    mats = [np.array([[rng.randrange(7) for _ in range(6)] for _ in range(6)]) for _ in range(40)]
    times = []
    for _ in range(reps):
        start = perf_counter()
        for m in mats:
            rank_mod(m, 7)
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(perf_counter() - start)
    return times


def main(argv: list[str]) -> int:
    command, *rest = argv
    if command == "reference":
        print(json.dumps(_reference(int(rest[0]))))
        return 0
    if command == "sweep":
        spans_path = rest[1] if len(rest) > 1 else None
    elif command == "cli":
        spans_path = rest[0]
    else:
        raise SystemExit(f"unknown command {command!r}")
    recorder = Recorder() if spans_path else None
    if recorder is not None:
        recorder.install()
    if command == "sweep":
        with open(rest[0], encoding="utf-8") as fh:
            corpus = json.load(fh)
        print(json.dumps(_sweep(corpus, reference=spans_path is None)))
        code = 0
    else:
        import monodromy.cli

        code = monodromy.cli.main(rest[1:])
        sys.stdout.flush()
    if recorder is not None:
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
