"""Spans around calls into zdrd's public layer functions, taken from outside.

The tracer replaces each wrap point - a public function at the module
attribute its caller looks up - with a wrapper that records a span: name,
parent, thread, start, end and a few attributes read from the arguments or
the result.  Each thread keeps its own span stack; a span opened on a pool
worker with an empty stack is parented to the open root span (the sweep's
``experiments.run`` span).  Spans stay in memory until the benchmark ends.

Nothing is added inside ``src/zdrd``.  A wrap point missing from the
program is recorded, and every metric that needs it is reported absent.
"""

import contextlib
import functools
import threading
import time


def _nrdf(args, result):
    return {"p": args[0].p, "form": result.form_used}


def _problem(args, result):
    arrays = (result.fused_C, result.fused_dA, result.q_dA)
    return {"p": result.p, "bytes": sum(a.nbytes for a in arrays)}


def _solve(args, result):
    return {"p": args[0].p}


def _steps(args, result):
    return {"steps": args[1].shape[0] + 1}


def _blocks(args, result):
    return {"blocks": int(args[2])}


def _symbols(args, result):
    return {"symbols": len(result)}


# (module, attribute, span name, span attributes from (args, result))
WRAP_POINTS = (
    ("experiments", "nrdf", "solver.nrdf", _nrdf),
    ("experiments", "build_realization", "realization.build", None),
    ("experiments", "run_coding_experiment", "coding.run", None),
    ("experiments", "write_csv", "experiments.write_csv", None),
    ("maxdet", "form_b_problem", "maxdet.build", _problem),
    ("maxdet", "form_a_problem", "maxdet.build", _problem),
    ("maxdet", "solve_maxdet", "maxdet.solve", _solve),
    ("kernels", "awgn_loop", "kernels.awgn_loop", _steps),
    ("kernels", "sdusq_loop", "kernels.sdusq_loop", _steps),
    ("kernels", "d4_loop", "kernels.d4_loop", _steps),
    ("kernels", "d4_dither", "kernels.d4_dither", _blocks),
    ("entropy_code", "histogram_of_rows", "entropy_code.histogram", _symbols),
    ("entropy_code", "huffman_lengths", "entropy_code.huffman", None),
)

RUN_SPAN = "experiments.run"


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = set()  # span names whose wrap point is absent
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._root = None

    @contextlib.contextmanager
    def span(self, name, root=False):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        rec = {
            "id": span_id,
            "parent": stack[-1] if stack else self._root,
            "name": name,
            "thread": threading.get_ident(),
            "attrs": {},
        }
        if root:
            self._root = span_id
        stack.append(span_id)
        cpu0 = time.thread_time()
        rec["t0"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            rec["cpu"] = time.thread_time() - cpu0
            stack.pop()
            if root:
                self._root = None
            with self._lock:
                self.spans.append(rec)

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    try:
                        rec["attrs"] = attrs(args, result)
                    except (AttributeError, IndexError, TypeError):
                        pass  # an argument changed shape; its metrics read absent
                return result

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every wrap point of ``package`` for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, attrs in WRAP_POINTS:
                module = getattr(package, module_name, None)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.add(name)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, attrs))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _dur(span):
    return span["t1"] - span["t0"]


def _union(intervals):
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def _self_time(span, children):
    """Span duration minus the part of it covered by its children."""
    kids = [(max(c["t0"], span["t0"]), min(c["t1"], span["t1"])) for c in children]
    return _dur(span) - _union([k for k in kids if k[1] > k[0]])


# name -> (unit, span names the metric needs).  Rates and means of layers a
# workload never reaches read 0.
PER_LAYER = {
    "solver.nrdf.ms_per_point.p2": ("ms", ("solver.nrdf",)),
    "solver.nrdf.ms_per_point.p4": ("ms", ("solver.nrdf",)),
    "solver.nrdf.ms_per_point.p6": ("ms", ("solver.nrdf",)),
    "solver.nrdf.calls": ("count", ("solver.nrdf",)),
    "solver.zero_rate_points": ("count", ("solver.nrdf", "maxdet.solve")),
    "maxdet.build.ms": ("ms", ("maxdet.build",)),
    "maxdet.solve.ms.p2": ("ms", ("maxdet.solve",)),
    "maxdet.solve.ms.p4": ("ms", ("maxdet.solve",)),
    "maxdet.solve.ms.p6": ("ms", ("maxdet.solve",)),
    "maxdet.basis_bytes.p6": ("bytes_computed", ("maxdet.build",)),
    "realization.build.ms": ("ms", ("realization.build",)),
    "coding.run.s": ("s", ("coding.run",)),
    "coding.self_s": (
        "s",
        (
            "coding.run",
            "kernels.awgn_loop",
            "kernels.sdusq_loop",
            "kernels.d4_loop",
            "kernels.d4_dither",
            "entropy_code.histogram",
            "entropy_code.huffman",
        ),
    ),
    "kernels.sdusq_loop.steps_per_s": ("1/s", ("kernels.sdusq_loop",)),
    "kernels.awgn_loop.s": ("s", ("kernels.awgn_loop",)),
    "kernels.d4_loop.steps_per_s": ("1/s", ("kernels.d4_loop",)),
    "kernels.d4_dither.blocks_per_s": ("1/s", ("kernels.d4_dither",)),
    "entropy_code.histogram.s": ("s", ("entropy_code.histogram",)),
    "entropy_code.huffman.s": ("s", ("entropy_code.huffman",)),
    "entropy_code.alphabet_max": ("count", ("entropy_code.histogram",)),
    "experiments.run.s": ("s", ()),
    "experiments.self_s": (
        "s",
        ("solver.nrdf", "realization.build", "coding.run", "experiments.write_csv"),
    ),
    "experiments.write_csv.s": ("s", ("experiments.write_csv",)),
    "experiments.overlap": (
        "ratio",
        ("solver.nrdf", "realization.build", "coding.run", "experiments.write_csv"),
    ),
    "trace.overhead_s": ("s", ()),
}


def layer_metrics(spans, missing, rounds):
    """Per-layer values from the spans of ``rounds`` traced sweep rounds.

    Totals in seconds and counts are per round; ``ms`` values are means per
    call; ``1/s`` values are work done over time busy.
    ``experiments.overlap`` is the CPU time of the run spans' children
    (threads waiting for the interpreter lock use none) over the runs' wall
    time: the parallelism the worker pool really gets.
    ``trace.overhead_s`` is left to the caller, which timed both runs.
    """
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)

    def named(name, **attrs):
        return [
            s for s in by_name.get(name, ())
            if all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def per_round(name):
        return sum(_dur(s) for s in named(name)) / rounds

    def mean_ms(name, **attrs):
        group = named(name, **attrs)
        return 1e3 * sum(_dur(s) for s in group) / len(group) if group else 0.0

    def rate(name, work):
        group = named(name)
        busy = sum(_dur(s) for s in group)
        return sum(s["attrs"][work] for s in group) / busy if busy else 0.0

    def self_per_round(name):
        return sum(_self_time(s, children.get(s["id"], ())) for s in named(name)) / rounds

    runs = named(RUN_SPAN)
    run_busy = sum(_dur(s) for s in runs)
    child_cpu = sum(c["cpu"] for s in runs for c in children.get(s["id"], ()))
    nrdf = named("solver.nrdf")
    solved = {s["parent"] for s in named("maxdet.solve")}
    builds6 = named("maxdet.build", p=6)

    compute = {
        "solver.nrdf.ms_per_point.p2": lambda: mean_ms("solver.nrdf", p=2),
        "solver.nrdf.ms_per_point.p4": lambda: mean_ms("solver.nrdf", p=4),
        "solver.nrdf.ms_per_point.p6": lambda: mean_ms("solver.nrdf", p=6),
        "solver.nrdf.calls": lambda: len(nrdf) // rounds,
        "solver.zero_rate_points": lambda: sum(
            1 for s in nrdf
            if s["id"] not in solved and s["attrs"].get("form") in ("form_a", "form_b")
        ) // rounds,
        "maxdet.build.ms": lambda: mean_ms("maxdet.build"),
        "maxdet.solve.ms.p2": lambda: mean_ms("maxdet.solve", p=2),
        "maxdet.solve.ms.p4": lambda: mean_ms("maxdet.solve", p=4),
        "maxdet.solve.ms.p6": lambda: mean_ms("maxdet.solve", p=6),
        "maxdet.basis_bytes.p6": lambda: max((s["attrs"]["bytes"] for s in builds6), default=0),
        "realization.build.ms": lambda: mean_ms("realization.build"),
        "coding.run.s": lambda: per_round("coding.run"),
        "coding.self_s": lambda: self_per_round("coding.run"),
        "kernels.sdusq_loop.steps_per_s": lambda: rate("kernels.sdusq_loop", "steps"),
        "kernels.awgn_loop.s": lambda: per_round("kernels.awgn_loop"),
        "kernels.d4_loop.steps_per_s": lambda: rate("kernels.d4_loop", "steps"),
        "kernels.d4_dither.blocks_per_s": lambda: rate("kernels.d4_dither", "blocks"),
        "entropy_code.histogram.s": lambda: per_round("entropy_code.histogram"),
        "entropy_code.huffman.s": lambda: per_round("entropy_code.huffman"),
        "entropy_code.alphabet_max": lambda: max(
            (s["attrs"]["symbols"] for s in named("entropy_code.histogram")), default=0
        ),
        "experiments.run.s": lambda: run_busy / rounds,
        "experiments.self_s": lambda: self_per_round(RUN_SPAN),
        "experiments.write_csv.s": lambda: per_round("experiments.write_csv"),
        "experiments.overlap": lambda: child_cpu / run_busy if run_busy else 0.0,
    }
    out = {}
    for name, fn in compute.items():
        unit, needs = PER_LAYER[name]
        if missing.intersection(needs):
            continue
        try:
            out[name] = {"value": fn(), "unit": unit}
        except KeyError:
            continue  # a wrap point no longer yields the attribute this metric reads
    return out
