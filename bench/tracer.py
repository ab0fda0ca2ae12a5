"""Per-layer call counts, self times and work counters, recorded from outside
the program.

`Tracer.install` wraps every public function of each imported layer module
(``cohomrep.<layer>``) and rebinds the wrapper in every loaded module whose
namespace binds the original, so both ``partitions.as_partition`` and the
``as_partition`` that ``branching`` imported by name are counted.  A call's
self time is its wall time minus the wall time of the wrapped calls made
inside it.  Generator functions are timed only for creating the generator;
their iteration is charged to the consumer, which sits in the same layer for
every generator the package has.  `Tracer.remove` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

#: layer name == module name under the cohomrep package
LAYERS = ("partitions", "vz_catalog", "rootdata", "branching", "isolation",
          "lefschetz", "geometry", "serialize", "cli")

#: work counters, all zero until the traced code runs
COUNTERS = (
    "partitions.as_partition_calls", "partitions.compat_tests",
    "partitions.pairs_emitted", "partitions.orth_emitted",
    "vz_catalog.modules_built",
    "rootdata.dirac_calls", "rootdata.dirac_s",
    "branching.lr_calls", "branching.gl_character_calls", "branching.gl_character_weights",
    "geometry.mc_samples", "geometry.mc_accepted", "geometry.hessian_func_evals",
    "serialize.bytes_out",
)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._child_time: list[float] = []
        self._patches: list[tuple[dict, str, object]] = []

    # -- counters taken at layer boundaries ---------------------------------

    def _after(self, qualname, result, elapsed):
        c = self.counters
        if qualname == "partitions.as_partition":
            c["partitions.as_partition_calls"] += 1
        elif qualname in ("partitions.compatible_pair", "partitions.is_compatible"):
            c["partitions.compat_tests"] += 1
        elif qualname == "partitions.enumerate_compatible":
            c["partitions.pairs_emitted"] += len(result)
        elif qualname == "partitions.enumerate_orthogonal":
            c["partitions.orth_emitted"] += len(result)
        elif qualname == "vz_catalog.module_from_pair":
            c["vz_catalog.modules_built"] += 1
        elif qualname == "vz_catalog.modules_from_orth":
            c["vz_catalog.modules_built"] += len(result)
        elif qualname == "rootdata.dirac_bound":
            c["rootdata.dirac_calls"] += 1
            c["rootdata.dirac_s"] += elapsed
        elif qualname == "branching.lr_coefficient":
            c["branching.lr_calls"] += 1
        elif qualname == "branching.gl_character":
            # semistandard tableaux filled == sum of the weight multiplicities
            c["branching.gl_character_calls"] += 1
            c["branching.gl_character_weights"] += sum(result.values())
        elif qualname == "geometry.mc_verify_integral":
            c["geometry.mc_samples"] += result["samples"]
            c["geometry.mc_accepted"] += result["accepted"]
        elif qualname == "serialize.dumps":
            c["serialize.bytes_out"] += len(result.encode())

    def _count_evals(self, func):
        counters = self.counters

        def counted(*a, **kw):
            counters["geometry.hessian_func_evals"] += 1
            return func(*a, **kw)
        return counted

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, fn):
        qualname = f"{layer}.{fn.__name__}"
        stack = self._child_time
        calls, self_s = self.calls, self.self_s
        counts_evals = qualname == "geometry.riemannian_hessian_fd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_evals:
                args = (self._count_evals(args[0]),) + args[1:]
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            self._after(qualname, result, elapsed)
            return result

        traced.bench_original = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"cohomrep.{layer}")
            if mod is None:  # never imported, so never called
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(layer, obj)
        for mod in list(sys.modules.values()):
            ns = getattr(mod, "__dict__", None)
            if not isinstance(ns, dict):
                continue
            for name, obj in list(ns.items()):
                w = wrappers.get(id(obj))
                if w is not None and w.bench_original is obj:
                    self._patches.append((ns, name, obj))
                    ns[name] = w

    def remove(self) -> None:
        while self._patches:
            ns, name, original = self._patches.pop()
            ns[name] = original


def leftover_wrappers() -> list[str]:
    """Names in loaded cohomrep modules still bound to a tracing wrapper."""
    return [f"{mod.__name__}.{name}"
            for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").startswith("cohomrep")
            for name, obj in vars(mod).items()
            if hasattr(obj, "bench_original")]
