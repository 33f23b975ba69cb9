"""Per-layer call tracer for the traced benchmark rounds.

The tracer instruments immdfun from outside the package; no source file
changes.  Each target function is replaced at every module-level binding
that holds it, so copies made by ``from .sunrep import lift`` are traced
too, and methods are patched on their class.  An open-span stack attributes
time: a function's self time is its duration minus the time of the traced
calls it made, and its inclusive time counts only the outermost of any
recursive calls.

A target the code no longer defines is listed in ``absent`` and skipped,
so a refactor that renames or deletes one never fails the run.
"""

from __future__ import annotations

import functools
import math
import sys
import time

import numpy as np

PACKAGE = "immdfun"

# The layers are the package's modules.
LAYERS = (
    "symgroup",
    "linalgimm",
    "_kernels",
    "sunrep",
    "dualspace",
    "plethysm",
    "verification",
    "reports",
    "cli",
)

# ``<module>.<function>`` or ``<module>.<Class>.<method>``.  Time spent in
# functions not listed here counts as self time of the nearest traced
# caller: ``verification.run_suite`` absorbs the suite bodies, and
# ``cli.main`` absorbs argument parsing and dump serialisation.
TARGETS = (
    "symgroup.character",
    "linalgimm.immanant",
    "linalgimm.permanent_ryser",
    "linalgimm.haar_random_unitary",
    "linalgimm._perm_tables",
    "_kernels.imm_sum",
    "_kernels.ryser_permanent",
    "_kernels.projector_apply",
    "sunrep.lift",
    "sunrep._principal_log",
    "sunrep.weight_of",
    "sunrep.gt_basis",
    "sunrep.generator_matrix",
    "sunrep.chain_label",
    "sunrep.dfunction_records",
    "sunrep.GTPattern.as_lists",
    "dualspace.immanant_via_duality",
    "dualspace.immanant_projector",
    "dualspace.apply_tensor_power",
    "dualspace.coefficient_matrix",
    "dualspace.verify_littlewood",
    "dualspace.conjecture_scan",
    "dualspace._sn_tables",
    "plethysm.fit_decomposition",
    "plethysm.torus_candidates",
    "verification.run_suite",
    "reports.VerificationReport.to_json_line",
    "cli.main",
)


def _side(args) -> int:
    return int(np.shape(args[0])[0])


def _count_imm_sum(stat, args, result):
    n = _side(args)
    stat["terms"] += math.factorial(n) * n


def _count_ryser(stat, args, result):
    n = _side(args)
    stat["terms"] += (1 << n) * n


def _count_projector(stat, args, result):
    # amps has m^N entries, sigmas one row per permutation of S_N
    stat["terms"] += len(args[2]) * int(np.size(args[0]))


def _count_lift(stat, args, result):
    d = int(result.matrix.shape[0])
    stat["d_sum"] += d
    stat["d_max"] = max(stat["d_max"], d)


def _count_fit(stat, args, result):
    stat["survivors"] += len(result.coefficients)
    stat["pruned"] += len(result.pruned)


# Work counters derived from arguments or results; each gets its own keys.
COUNTERS = {
    "_kernels.imm_sum": (_count_imm_sum, {"terms": 0}),
    "_kernels.ryser_permanent": (_count_ryser, {"terms": 0}),
    "_kernels.projector_apply": (_count_projector, {"terms": 0}),
    "sunrep.lift": (_count_lift, {"d_sum": 0, "d_max": 0}),
    "plethysm.fit_decomposition": (_count_fit, {"survivors": 0, "pruned": 0}),
}


class Tracer:
    """Installs span wrappers and accumulates calls and times per target."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._originals: dict[str, object] = {}
        self._stack: list[float] = []

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for target in TARGETS:
            layer, _, qualname = target.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            owner_name, _, method = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            attr = method
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            self._originals[target] = original
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def _wrap(self, name: str, fn):
        stat = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        count, keys = COUNTERS.get(name, (None, {}))
        stat.update(keys)
        self.stats[name] = stat
        stack = self._stack
        clock = time.perf_counter
        depth = [0]
        errors = self.counter_errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] -= 1
                children = stack.pop()
                stat["calls"] += 1
                stat["self_s"] += elapsed - children
                if depth[0] == 0:
                    stat["incl_s"] += elapsed
                if stack:
                    stack[-1] += elapsed
            if count is not None and name not in errors:
                try:
                    count(stat, args, result)
                except (AttributeError, IndexError, TypeError, ValueError) as exc:
                    # the signature or result type changed: drop the counter
                    errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def report(self) -> dict:
        """Span totals, cache statistics and the names found absent."""
        stats = {}
        for name, stat in self.stats.items():
            out = dict(stat)
            if name in self.counter_errors:
                for key in COUNTERS[name][1]:
                    out.pop(key, None)
            cache_info = getattr(self._originals[name], "cache_info", None)
            if cache_info is not None:
                info = cache_info()
                out["hits"], out["misses"] = info.hits, info.misses
            stats[name] = out
        return {
            "stats": stats,
            "absent": list(self.absent),
            "counter_errors": dict(self.counter_errors),
        }
