"""Per-layer tracing: wrap encat's public functions and total their self time.

The wrappers are installed in the benchmark's parent process, which never
calls encat itself, so every forked command child starts with empty totals.
A span opens when a wrapped function is entered and closes when it returns;
its self time is its duration minus the durations of the wrapped calls made
inside it.  Durations are CPU seconds of the child, the clock the end-to-end
latencies use.  Spans are folded into per-function totals as they close and the
child sends the totals to the parent when its command ends.

``compose``, ``compose_path`` and ``canonical`` are not wrapped: they run
10^5-10^6 times per command and the wrapper would dominate them.
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = (
    "cli.cli",
    "interface.parse", "interface.serialize",
    "instances.build_instance", "instances.module_self_tensorclosed",
    "core.validate_category", "core.structural_equal", "core.validate_functor",
    "monoidal.check_monoidal", "monoidal.check_symmetry", "monoidal.check_closed",
    "monoidal.transpose_pi", "monoidal.transpose_pi_inv",
    "monoidal.internal_pi_bar", "monoidal.hom_functor",
    "vcat.check_vcategory", "vcat.underlying_category", "vcat.check_tensored",
    "vstruct.check_vstructure", "vstruct.check_cylinder", "vstruct.check_path",
    "vstruct.associated_vcategory", "vstruct.induced_tensor_bifunctor",
    "vmodule.check_vmodule", "vmodule.check_tensor_closed",
    "vmodule.check_closed_module", "vmodule.check_closed_bimodule",
    "vmodule.module_phibar", "vmodule.induced_vstructure",
    "equiv.module_to_cylinder", "equiv.cylinder_to_module",
    "equiv.cylinder_to_tensored", "equiv.tensored_to_cylinder",
    "equiv.bimodule_completion",
)

# public checkers the CLI never calls: zero-call rows of the printed layer
# table, so that they are seen to be outside the benchmark, but no metrics
UNREACHED = ("vcat.check_tensored", "vstruct.check_path")

# functions whose calls are also counted per distinct argument tuple
REPEAT = ("monoidal.transpose_pi", "monoidal.internal_pi_bar", "vmodule.module_phibar")


def _arg_key(args) -> tuple:
    # tables are compared by identity: one command builds each of them once
    return tuple(a if isinstance(a, (str, int)) else id(a) for a in args)


class Tracer:
    """Per-function totals of one command child: calls, self seconds, errors,
    bytes through the codec and distinct argument tuples."""

    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.errors = [0] * n
        self.nbytes = [0] * n
        self.keys = {LAYERS.index(name): set() for name in REPEAT}
        self._stack: list[list[float]] = []

    def install(self) -> None:
        """Replace each layer function on every encat module that binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "encat" or name.startswith("encat.")]
        for idx, name in enumerate(LAYERS):
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"encat.{mod_name}"), fn_name)
            wrapper = self._wrap(idx, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, idx: int, fn):
        stack, keys = self._stack, self.keys.get(idx)
        counts_input = LAYERS[idx] == "interface.parse"
        counts_output = LAYERS[idx] == "interface.serialize"
        clock = time.process_time

        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(_arg_key(args))
            if counts_input:
                self.nbytes[idx] += len(args[0])
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[idx] += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.self_s[idx] += duration - frame[0]
                self.calls[idx] += 1
            if counts_output:
                self.nbytes[idx] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self) -> dict[str, list]:
        """Per-function lists, in the order of LAYERS."""
        distinct = [len(self.keys[i]) if i in self.keys else 0 for i in range(len(LAYERS))]
        return {"calls": self.calls, "self_s": self.self_s, "errors": self.errors,
                "bytes": self.nbytes, "distinct": distinct}
