"""Per-layer tracing from outside the program, by wrapping public functions.

`Tracer.install()` replaces every module-level binding of each wrapped
function in the loaded `tropfan` modules (and the class attribute, for
methods) with a timing wrapper. A function that is imported by name into
several modules, such as `solve_int`, is therefore timed wherever it is
called from. For each wrapped function the trace reports

    <layer>.<fn>.calls    number of calls
    <layer>.<fn>.s        inclusive time, outermost calls only
    <layer>.<fn>.self_s   inclusive time minus time in wrapped callees

plus the counters in `COUNTERS`. A name the program no longer defines is
reported as null and listed in `Tracer.missing`. Time spent computing the
counters themselves is excluded from every span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer, module, qualified name) of every wrapped function.
WRAPPED = (
    ("fans", "tropfan.fans", "build_fan"),
    ("fans", "tropfan.fans", "Fan.multitangent"),
    ("matroids", "tropfan.matroids", "Matroid.flats"),
    ("matroids", "tropfan.matroids", "bergman_fan"),
    ("sheaves", "tropfan.sheaves", "build_multitangent"),
    ("sheaves", "tropfan.sheaves", "wedge_basis"),
    ("sheaves", "tropfan.sheaves", "ModuleAssignment.inclusion"),
    ("complexes", "tropfan.complexes", "bm_chain_complex"),
    ("complexes", "tropfan.complexes", "ChainComplex.homology"),
    ("complexes", "tropfan.complexes", "star_homology_table"),
    ("exact", "tropfan.exact", "homology_of_pair"),
    ("exact", "tropfan.exact", "kernel_lattice"),
    ("exact", "tropfan.exact", "kernel_field"),
    ("exact", "tropfan.exact", "smith_normal_form"),
    ("exact", "tropfan.exact", "hermite_normal_form"),
    ("intmat", "tropfan.intmat", "solve_int"),
    ("intmat", "tropfan.intmat", "solve_exact"),
    ("intmat", "tropfan.intmat", "det_int"),
    ("duality", "tropfan.duality", "balancing_failure"),
    ("duality", "tropfan.duality", "fundamental_chain"),
    ("duality", "tropfan.duality", "cap_star"),
    ("duality", "tropfan.duality", "is_tpd"),
    ("duality", "tropfan.duality", "is_local_tpd"),
    ("duality", "tropfan.duality", "tpd_from_stars_check"),
    ("duality", "tropfan.duality", "local_tpd_characterization"),
    ("io", "tropfan.io", "parse_fan"),
    ("io", "tropfan.io", "serialize_fan"),
    ("cli", "tropfan.cli", "run_cli"),
    ("pool", "tropfan.pool", "run_jobs"),
)

COUNTERS = (
    "fans.faces",  # faces of every fan build_fan returns
    "fans.memo.calls",
    "fans.memo.misses",  # calls whose compute ran
    "fans.memo.hit_ratio",  # 1 - misses/calls, 0 when there were no calls
    "complexes.diff_entries",  # rows x cols of every bm_chain_complex differential
    "complexes.diff_nnz",
    "exact.homology_of_pair.max_cols",  # widest input matrix of any call
    "exact.homology_of_pair.nnz_in",  # nonzeros of both inputs, summed
)

STATS = ("calls", "s", "self_s")


def unit(name):
    if name.endswith((".s", ".self_s")):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def _nnz(mat) -> int:
    return sum(1 for row in mat.data for x in row if x)


class _Span:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.spans = {}  # "layer.qualname" -> _Span
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing = []
        self._stack = []  # time spent in wrapped callees, per open call
        self._paused = 0.0

    def _now(self):
        return time.perf_counter() - self._paused

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, key, fn, after=None, before=None, fed=()):
        span = self.spans.setdefault(key, _Span())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._count(before, fed, (args, kwargs))
            span.depth += 1
            stack.append(0.0)
            start = self._now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self._now() - start
                inner = stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_s += elapsed - inner
                if span.depth == 0:
                    span.s += elapsed
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                self._count(after, fed, result)
            return result

        return wrapper

    def _count(self, hook, fed, value):
        """Runs a counter hook off the clock. A hook that no longer fits the
        program's data (say, a changed matrix type) nulls its counters."""
        if fed[0] in self.missing:
            return
        t0 = time.perf_counter()
        try:
            hook(value)
        except (AttributeError, TypeError, LookupError):
            self.missing += fed
        self._paused += time.perf_counter() - t0

    def _faces(self, fan):
        self.counts["fans.faces"] += fan.face_count()

    def _differentials(self, complex_):
        for mat in complex_.diffs.values():
            self.counts["complexes.diff_entries"] += mat.rows * mat.cols
            self.counts["complexes.diff_nnz"] += _nnz(mat)

    def _pair_inputs(self, call):
        args, kwargs = call
        mats = list(args[:2]) + [kwargs[k] for k in ("boundary_in", "boundary_out") if k in kwargs]
        key = "exact.homology_of_pair.max_cols"
        self.counts[key] = max([self.counts[key]] + [m.cols for m in mats])
        self.counts["exact.homology_of_pair.nnz_in"] += sum(_nnz(m) for m in mats)

    def _memo_wrapper(self, memo):
        counts = self.counts

        @functools.wraps(memo)
        def wrapper(fan, key, compute, *args, **kwargs):
            counts["fans.memo.calls"] += 1

            def counted():
                counts["fans.memo.misses"] += 1
                return compute()

            return memo(fan, key, counted, *args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Patches the loaded program; call after importing it."""
        for _, module_name, _ in WRAPPED:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        loaded = [m for name, m in list(sys.modules.items()) if name == "tropfan" or name.startswith("tropfan.")]
        # Counter hooks of wrapped functions, and the counters they feed.
        hooks = {
            "build_fan": {"after": self._faces, "fed": ["fans.faces"]},
            "bm_chain_complex": {"after": self._differentials, "fed": ["complexes.diff_entries", "complexes.diff_nnz"]},
            "homology_of_pair": {
                "before": self._pair_inputs,
                "fed": ["exact.homology_of_pair.max_cols", "exact.homology_of_pair.nnz_in"],
            },
        }
        for layer, module_name, qualname in WRAPPED:
            key = f"{layer}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            hook = hooks.get(attr, {})
            owner = sys.modules.get(module_name)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing += [key] + hook.get("fed", [])
                continue
            wrapper = self._wrap(key, original, **hook)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
        fan_cls = getattr(sys.modules.get("tropfan.fans"), "Fan", None)
        if fan_cls is None or not hasattr(fan_cls, "memo"):
            self.missing += ["fans.memo.calls", "fans.memo.misses", "fans.memo.hit_ratio"]
        else:
            fan_cls.memo = self._memo_wrapper(fan_cls.memo)

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Every per-layer metric by name: a number, or None when missing."""
        out = {}
        for layer, _, qualname in WRAPPED:
            key = f"{layer}.{qualname}"
            span = self.spans.get(key)
            for stat in STATS:
                out[f"{key}.{stat}"] = None if span is None else getattr(span, stat)
        calls = self.counts["fans.memo.calls"]
        self.counts["fans.memo.hit_ratio"] = 1 - self.counts["fans.memo.misses"] / calls if calls else 0.0
        for name in COUNTERS:
            out[name] = None if name in self.missing else self.counts[name]
        return out
