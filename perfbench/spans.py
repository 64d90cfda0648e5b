"""Spans around the public functions of the monodromy modules, recorded from outside.

``install`` replaces each wrapped function in every ``monodromy`` module that
binds it (modules import each other's functions with ``from .x import f``)
and patches methods on their class.  Spans stay in memory as
``[parent, name, start, end, value]`` rows, indexed by span id, and are
written out once by ``dump`` when the process ends.  ``aggregate`` turns
the dumps of one traced run into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, function or Class.method, value recorded from the result)
WRAPPED = [
    ("group_engine", "derived_subgroup_generators", len),
    ("group_engine", "contains_derived", None),
    ("group_engine", "GeneratedGroup.order", None),
    ("group_engine", "GeneratedGroup.contains_array", None),
    ("group_engine", "is_irreducible", lambda report: report.trials),
    ("group_engine", "element_order", None),
    ("classical_groups", "classify_element", None),
    ("classical_groups", "spinor_norm", None),
    ("classical_groups", "subgroup_class", None),
    ("classical_groups", "isometry_group_orders", None),
    ("convolution", "middle_convolve", None),
    ("convolution", "predict_rank", None),
    ("ff_linalg", "jordan_type", None),
    ("ff_linalg", "invariant_forms", None),
    ("ff_linalg", "kernel", None),
    ("ff_linalg", "Matrix.inv", None),
    ("ff_linalg", "Matrix.det", None),
    ("ff_linalg", "Matrix.rank", None),
    ("certifier", "certify", None),
    ("certifier", "cross_validate", None),
    ("families", "discover_pairing", None),
    ("cli", "main", None),
    ("cli", "parse_tuple", None),
    ("cli", "emit_tuple", None),
]
# counted, not timed: too frequent and too cheap for a span each
COUNTED = [("ff_linalg", "Matrix.__matmul__")]

DERIVED = "group_engine.derived_subgroup_generators"
ORDER = "group_engine.GeneratedGroup.order"
IRREDUCIBLE = "group_engine.is_irreducible"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, attr, _ in WRAPPED:
        name = f"{module}.{attr}"
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"), (f"{name}.total_s", "s")]
        if name == DERIVED:
            out += [(f"{name}.chain_builds", "count"), (f"{name}.gens", "count")]
        if name == IRREDUCIBLE:
            out.append((f"{name}.trials", "count"))
    out += [(f"{module}.{attr}.calls", "count") for module, attr in COUNTED]
    out += [("trace.outside_s", "s"), ("trace.overhead_frac", "ratio")]
    return out


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def timed(self, name, fn, value=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            row = [stack[-1] if stack else -1, name, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = perf_counter()
                stack.pop()
            if value is not None:
                row[4] = value(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import monodromy.cli  # noqa: F401  (imports every module of the package)

        modules = [m for key, m in sys.modules.items() if key == "monodromy" or key.startswith("monodromy.")]
        for module, attr, value in WRAPPED:
            self._patch(modules, module, attr, lambda name, fn: self.timed(name, fn, value))
        for module, attr in COUNTED:
            self._patch(modules, module, attr, self.counted)

    @staticmethod
    def _patch(modules, module, attr, make) -> None:
        """Wrap ``module.attr``; a name the program no longer has is skipped and reports 0."""
        owner = sys.modules.get(f"monodromy.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            original = vars(cls).get(meth) if isinstance(cls, type) else None
            if original is not None:
                setattr(cls, meth, make(f"{module}.{attr}", original))
            return
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = make(f"{module}.{attr}", original)
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is original]:
                setattr(m, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def aggregate(dumps: list[dict], job_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run from the dumps of its processes.

    Self time is a span's duration minus the durations of its direct
    children; ``trace.outside_s`` is the jobs' wall time not covered by any
    root span (interpreter start-up, imports, input parsing outside spans).
    """
    metrics = {name: 0 for name, _ in metric_names()}
    covered = 0.0
    for dump in dumps:
        spans = dump["spans"]
        child_s = [0.0] * len(spans)
        under_derived = [False] * len(spans)
        for i, (parent, name, start, end, _) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += end - start
                under_derived[i] = under_derived[parent] or spans[parent][1] == DERIVED
            else:
                covered += end - start
        for i, (parent, name, start, end, value) in enumerate(spans):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.total_s"] += end - start
            metrics[f"{name}.self_s"] += end - start - child_s[i]
            if name == DERIVED:
                metrics[f"{DERIVED}.gens"] += value or 0
            elif name == IRREDUCIBLE:
                metrics[f"{IRREDUCIBLE}.trials"] += value or 0
            elif name == ORDER and under_derived[i]:
                metrics[f"{DERIVED}.chain_builds"] += 1
        for name, count in dump["counts"].items():
            metrics[f"{name}.calls"] += count
    metrics["trace.outside_s"] = job_wall_s - covered
    return metrics
