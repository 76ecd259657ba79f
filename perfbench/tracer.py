"""Span tracing of ``wordlength`` from outside the package.

The tracer replaces the package's public functions with timing wrappers at
every place they are looked up: the defining module and every other
``wordlength`` module that imported the name (``from .spectra import
j_characteristics`` makes a second binding that must be patched too).
Methods are patched on their class.  Spans live in memory as parallel arrays
and are written out when the run ends; self time is derived afterwards as a
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "design", "groups", "kron", "spectra", "invariance", "render")

# (layer, attribute path in the layer's module, span name).  Every public
# function of each module is listed except two leaf helpers that only their
# own layer calls on the benchmarked paths (render.fmt_float,
# groups.root_of_unity): their time lands in the calling span of the same
# layer, and wrapping them would add one span per rendered float.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("design", "parse_design", "design.parse_design"),
    ("design", "margins", "design.margins"),
    ("design", "relabel_levels", "design.relabel_levels"),
    ("design", "Design.dense_counts", "design.dense_counts"),
    ("design", "Design.serialize", "design.serialize"),
    ("design", "MarginTable.dense", "design.margin_dense"),
    ("groups", "canonical_cyclic_orders", "groups.canonical_cyclic_orders"),
    ("groups", "parse_structure", "groups.parse_structure"),
    ("groups", "enumerate_structures", "groups.enumerate_structures"),
    ("groups", "cyclic_character_table", "groups.cyclic_character_table"),
    ("groups", "character_table", "groups.character_table"),
    ("kron", "kron", "kron.kron"),
    ("kron", "kron_all", "kron.kron_all"),
    ("kron", "factored_apply", "kron.factored_apply"),
    ("kron", "projector_factors", "kron.projector_factors"),
    ("kron", "build_projector", "kron.build_projector"),
    ("spectra", "check_assignment", "spectra.check_assignment"),
    ("spectra", "weight", "spectra.weight"),
    ("spectra", "element_weights", "spectra.element_weights"),
    ("spectra", "assignment_character_table", "spectra.assignment_character_table"),
    ("spectra", "j_characteristics", "spectra.j_characteristics"),
    ("spectra", "reconstruct", "spectra.reconstruct"),
    ("spectra", "gwlp_char", "spectra.gwlp_char"),
    ("invariance", "subset_norm", "invariance.subset_norm"),
    ("invariance", "projector_norms", "invariance.projector_norms"),
    ("invariance", "gwlp_margin", "invariance.gwlp_margin"),
    ("invariance", "resolution_and_strength", "invariance.resolution_and_strength"),
    ("invariance", "compare_aberration", "invariance.compare_aberration"),
    ("invariance", "expand_assignments", "invariance.expand_assignments"),
    ("invariance", "verify_invariance", "invariance.verify_invariance"),
    ("render", "dumps", "render.dumps"),
    ("render", "element_label", "render.element_label"),
    ("render", "complex_json", "render.complex_json"),
    ("render", "fmt_complex", "render.fmt_complex"),
    ("render", "gwlp_text", "render.gwlp_text"),
)

COMPLEX_BYTES = 16


def _literal(structure) -> str:
    return structure.literal() if hasattr(structure, "literal") else str(structure)


def _count_factored_apply(counts, args, kwargs, result):
    sizes = [len(f) for f in args[0]]
    s = math.prod(sizes)
    counts["kron.factored_apply.elements"] += s
    # One complex multiply-add per output entry per contracted index, and per
    # axis a read and a write of the whole vector plus the factor matrix.
    counts["kron.factored_apply.ops"] += s * sum(sizes)
    counts["kron.factored_apply.bytes"] += sum(
        2 * COMPLEX_BYTES * s + COMPLEX_BYTES * d * d for d in sizes
    )


def _count_reconstruct(counts, args, kwargs, result):
    counts["spectra.reconstruct.cells"] += len(args[0].values)


def _count_margins(counts, args, kwargs, result):
    counts["design.margins.runs_scanned"] += len(args[0].counts)


def _count_dumps(counts, args, kwargs, result):
    counts["render.dumps.bytes"] += len(result.encode("utf-8"))


COUNTED = (
    "kron.factored_apply.elements",
    "kron.factored_apply.ops",
    "kron.factored_apply.bytes",
    "spectra.reconstruct.cells",
    "design.margins.runs_scanned",
    "render.dumps.bytes",
)

COUNTERS = {
    "kron.factored_apply": _count_factored_apply,
    "spectra.reconstruct": _count_reconstruct,
    "design.margins": _count_margins,
    "render.dumps": _count_dumps,
}


@dataclass
class Spans:
    """Parallel arrays: span name id, start/end in ns, parent index (-1 = root), job."""

    names: array
    starts: array
    ends: array
    parents: array
    jobs: array

    @classmethod
    def empty(cls) -> "Spans":
        return cls(array("q"), array("q"), array("q"), array("q"), array("q"))

    def __len__(self) -> int:
        return len(self.names)


class Tracer:
    """Installs span wrappers into a loaded ``wordlength`` and records into ``spans``."""

    def __init__(self):
        self.names = [name for _, _, name in WRAPPED]
        self.layer_of = {name: layer for layer, _, name in WRAPPED}
        self.spans = Spans.empty()
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.transforms: set = set()  # distinct spectra per job, for useful_ratio
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = Spans.empty()
        self.counts = defaultdict(int)
        self.transforms = set()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key.startswith("wordlength") and m]
        for name_id, (layer, path, name) in enumerate(WRAPPED):
            owner = sys.modules[f"wordlength.{layer}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name_id, name)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name_id: int, name: str):
        counter = COUNTERS.get(name)
        error_key = f"{self.layer_of[name]}.errors"
        is_transform = name == "spectra.j_characteristics"
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans.names)
            spans.names.append(name_id)
            spans.parents.append(stack[-1] if stack else -1)
            spans.jobs.append(tracer.job)
            spans.ends.append(0)
            stack.append(index)
            spans.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.ends[index] = clock()
                stack.pop()
                tracer.counts[error_key] += 1
                raise
            spans.ends[index] = clock()
            stack.pop()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            if is_transform:
                algorithm = args[2] if len(args) > 2 else kwargs.get("algorithm", "factorized")
                key = (tracer.job, id(args[0]), tuple(_literal(st) for st in args[1]), algorithm)
                tracer.transforms.add(key)
            return result

        return wrapper


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the union of its children's intervals within it."""
    children: defaultdict[int, list[int]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered, reach = 0, lo
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def summarize(tracer: Tracer, job_walls: list[float]) -> dict[str, float]:
    """Per-name calls and inclusive seconds, per-name and per-layer self seconds.

    ``trace.accounted_ratio`` is the smallest, over jobs, of the job's summed
    span self time divided by its wall time measured around the CLI call.
    """
    spans = tracer.spans
    selfs = self_times(spans.starts, spans.ends, spans.parents)
    out: defaultdict[str, float] = defaultdict(float)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.errors"] = tracer.counts.get(f"{layer}.errors", 0)
    for name in tracer.names:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    per_job = [0] * len(job_walls)
    for name_id, start, end, self_ns, job in zip(
        spans.names, spans.starts, spans.ends, selfs, spans.jobs
    ):
        name = tracer.names[name_id]
        per_job[job] += self_ns
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += (end - start) / 1e9
        out[f"{name}.self_s"] += self_ns / 1e9
        out[f"{tracer.layer_of[name]}.self_s"] += self_ns / 1e9
    for key in COUNTED:
        out[key] = tracer.counts.get(key, 0)
    out["trace.accounted_ratio"] = min(ns / 1e9 / wall for ns, wall in zip(per_job, job_walls))
    calls = out["spectra.j_characteristics.calls"]
    out["spectra.j_characteristics.useful_ratio"] = len(tracer.transforms) / calls if calls else 1.0
    return dict(out)


def write_spans(tracer: Tracer, path) -> None:
    """One tab-separated line per span; ``parent`` is a span index, -1 for a root."""
    spans = tracer.spans
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("job\tspan\tname\tstart_ns\tend_ns\tparent\n")
        for i in range(len(spans)):
            fh.write(
                f"{spans.jobs[i]}\t{i}\t{tracer.names[spans.names[i]]}\t"
                f"{spans.starts[i]}\t{spans.ends[i]}\t{spans.parents[i]}\n"
            )
