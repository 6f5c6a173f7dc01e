"""Spans around the calls into each layer, recorded from outside the program.

The tracer replaces the public functions listed in ``SPANS`` with wrappers
at every module binding: modules import these functions by name (``folding``
and ``decomposition`` hold their own ``build_arrangement`` and
``cancellation_norm``), so patching only the defining module would miss
calls.  The CLI's command callbacks get spans named ``cli.<command>``.

A span is ``[name, start, end, parent, op, extra]``; spans stay in memory
and are written out when the run ends.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time

from inputs import CLI_COMMANDS

# module -> {function name: span name}
SPANS = {
    "arrangement": {"build_arrangement": "arrangement.build",
                    "tree_cotree": "arrangement.tree_cotree",
                    "rotation_number": "arrangement.rotation",
                    "turning_of_directions": "arrangement.rotation"},
    "words": {"build_cable_system": "words.cables",
              "blank_word": "words.word",
              "combined_word": "words.word",
              "nie_word": "words.nie_word",
              "derive_flattening": "words.nie_word"},
    "folding": {"cancellation_norm": "folding.norm",
                "positively_foldable": "folding.posfold",
                "is_self_overlapping": "folding.selfoverlap",
                "complete_to_maximal": "folding.maximal"},
    "transforms": {"switch_adjacent": "transforms.switch",
                   "transport_folding_switch": "transforms.switch",
                   "dehn_twist": "transforms.twist",
                   "transport_folding_twist": "transforms.twist",
                   "back_transport_twist": "transforms.twist"},
    "decomposition": {"min_area_sod": "decomposition.sod",
                      "certify_subcurve": "decomposition.certify",
                      "smooth_at": "decomposition.smooth",
                      "sod_to_folding": "decomposition.sod_to_folding",
                      "homotopy_trace": "decomposition.trace"},
}

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "arrangement.build_s": ("s", "lower"),
    "arrangement.tree_cotree_s": ("s", "lower"),
    "arrangement.rotation_s": ("s", "lower"),
    "arrangement.builds_per_op": ("count", "lower"),
    "words.cables_s": ("s", "lower"),
    "words.word_s": ("s", "lower"),
    "words.nie_word_s": ("s", "lower"),
    "folding.norm_s": ("s", "lower"),
    "folding.posfold_s": ("s", "lower"),
    "folding.selfoverlap_s": ("s", "lower"),
    "folding.maximal_s": ("s", "lower"),
    "folding.norm_calls_per_op": ("count", "lower"),
    "folding.norm_cells_per_s": ("1/s", "higher"),
    "transforms.switch_s": ("s", "lower"),
    "transforms.twist_s": ("s", "lower"),
    "decomposition.sod_s": ("s", "lower"),
    "decomposition.certify_s": ("s", "lower"),
    "decomposition.smooth_s": ("s", "lower"),
    "decomposition.sod_to_folding_s": ("s", "lower"),
    "decomposition.trace_s": ("s", "lower"),
    "decomposition.certify_calls_per_op": ("count", "lower"),
    "decomposition.certify_ok_ratio": ("ratio", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.bare_start_s": ("s", "lower"),
    **{f"cli.{c}_p50_s": ("s", "lower") for c in CLI_COMMANDS},
    "cli.self_s": ("s", "lower"),
    "trace.ops_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def _extra(name: str, args, result):
    if name == "folding.norm":
        return len(args[0])
    if name == "decomposition.certify":
        return bool(result[0])
    return None


class Tracer:
    """Installs span wrappers on the six layer modules and collects spans."""

    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple[object, str, object, object]] = []
        originals = {}
        for mod_name, names in SPANS.items():
            for fn_name, span in names.items():
                fn = getattr(modules[mod_name], fn_name)
                originals[id(fn)] = (fn, self._wrap(fn, span))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patches.append((mod, attr, value, originals[id(value)][1]))
        for name, command in modules["cli"].main.commands.items():
            self._patches.append((command, "callback", command.callback,
                                  self._wrap(command.callback, f"cli.{name}")))

    def _wrap(self, fn, span: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(span, fn, args, kwargs)
        return traced

    def call(self, span: str, fn, args=(), kwargs=None):
        record = [span, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        record[5] = _extra(span, args, result)
        return result

    def operation(self, op_id, fn, *args):
        """Run one operation under a root span named ``op``."""
        self._op = op_id
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)
        try:
            return self.call("op", fn, args)
        finally:
            for target, attr, original, _ in self._patches:
                setattr(target, attr, original)
            self._op = None


def self_times(spans) -> dict[str, float]:
    """Total self time per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = {}
    for k, (name, start, end, _, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[k]
    return out


def layer_table(spans, ops: int) -> dict[str, float]:
    """The per-layer metrics that come from spans, per operation."""
    own = self_times(spans)
    count: dict[str, int] = {}
    for s in spans:
        count[s[0]] = count.get(s[0], 0) + 1
    norm_cells = sum(s[5] * s[5] / 2 for s in spans if s[0] == "folding.norm")
    certified = sum(1 for s in spans if s[0] == "decomposition.certify" and s[5])
    per_op = {name: t / ops for name, t in own.items()}
    table = {f"{name}_s": per_op.get(name, 0.0)
             for name in sorted({n for names in SPANS.values() for n in names.values()})}
    table["arrangement.builds_per_op"] = count.get("arrangement.build", 0) / ops
    table["folding.norm_calls_per_op"] = count.get("folding.norm", 0) / ops
    norm_time = own.get("folding.norm", 0.0)
    table["folding.norm_cells_per_s"] = norm_cells / norm_time if norm_time else 0.0
    calls = count.get("decomposition.certify", 0)
    table["decomposition.certify_calls_per_op"] = calls / ops
    table["decomposition.certify_ok_ratio"] = certified / calls if calls else 0.0
    table["cli.self_s"] = sum((t for name, t in per_op.items() if name.startswith("cli.")), 0.0)
    return table

