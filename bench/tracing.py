"""Span tracing of sftcd's public functions, from outside the package.

A Tracer rebinds each function in TRACED, in every loaded sftcd module
that holds it (this also covers call-time imports such as
`from .codes import check_onto`, which read the module attribute).  Each
call records a span (name, start, end, parent) in memory; counters are
read off the returned values.  Private helpers (`_depth_search`,
`_Reach`) are not timed: their cost shows as the self time of the public
function that calls them.

Install a Tracer only in a process that runs nothing untraced afterwards:
there is no uninstall.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute, span name); the span name is `<module>.<function>`,
# except cmd_verify, which is the `verify` command of the CLI.
#
# What each layer should move, written down before measuring:
# - the scans (class_degree, relative_class_degree, find_magic_block,
#   periodic_point_relative_degree) and their `blocks`: deep's wall time,
#   sweep's wall time and tail; not certify, which runs no scan;
# - depth, relative_depth, verify_certificate and their `witnesses`:
#   certify's ops per second and median block;
# - the bridge functions and `found_ratio`: certify's wall time;
# - check_onto, is_finite_to_one, CodeTriple.build, recode_to_one_block,
#   generate_triple, generate_chain_code, enumerate_blocks: set-up time and
#   sweep's median case;
# - run_case self time and harness.scan_hit_ratio: sweep's wall time;
# - cli.verify entries_written and hit_ratio: verify-cache's cold and warm
#   pass times.
TRACED = (
    ("cli", "cmd_verify", "cli.verify"),
    ("harness", "run_case", "harness.run_case"),
    ("harness", "generate_triple", "harness.generate_triple"),
    ("harness", "generate_chain_code", "harness.generate_chain_code"),
    ("depth", "class_degree", "depth.class_degree"),
    ("depth", "relative_class_degree", "depth.relative_class_degree"),
    ("depth", "periodic_point_relative_degree", "depth.periodic_point_relative_degree"),
    ("fiber", "find_magic_block", "fiber.find_magic_block"),
    ("depth", "depth", "depth.depth"),
    ("depth", "relative_depth", "depth.relative_depth"),
    ("depth", "verify_certificate", "depth.verify_certificate"),
    ("bridge", "bounded_bridge_exists", "bridge.bounded_bridge_exists"),
    ("bridge", "construct_bridge", "bridge.construct_bridge"),
    ("bridge", "verify_bridge", "bridge.verify_bridge"),
    ("bridge", "fixed_point_class_oracle", "bridge.fixed_point_class_oracle"),
    ("codes", "check_onto", "codes.check_onto"),
    ("codes", "is_finite_to_one", "codes.is_finite_to_one"),
    ("codes", "CodeTriple.build", "codes.CodeTriple.build"),
    ("codes", "recode_to_one_block", "codes.recode_to_one_block"),
    ("core", "enumerate_blocks", "core.enumerate_blocks"),
)

# Counters read off one call: span name -> (quantity, observer).  An
# observer returns a number to add up, except for `blocks`, where it
# returns (codomain shift, scanned length) and the blocks of every length
# up to the scanned one are counted after the pass.
OBSERVED = {
    "depth.class_degree": ("blocks", lambda a, r: (a[0].codomain, r.scanned_length)),
    "depth.relative_class_degree": ("blocks", lambda a, r: (a[0].Y, r.scanned_length)),
    "fiber.find_magic_block": (
        "blocks",
        lambda a, r: (a[0].codomain, r.certified.scanned_length),
    ),
    "depth.depth": ("witnesses", lambda a, r: len(r.certificate.witnesses)),
    "depth.relative_depth": ("witnesses", lambda a, r: len(r.certificate.witnesses)),
    "depth.verify_certificate": ("witnesses", lambda a, r: len(a[1].witnesses)),
    "bridge.bounded_bridge_exists": ("found", lambda a, r: int(bool(r.found))),
    "codes.check_onto": ("length", lambda a, r: r.checked_length),
    "harness.run_case": ("requested", lambda a, r: sum(len(x.values) for x in r)),
}

SCANS = ("depth.class_degree", "depth.relative_class_degree")


def blocks_scanned(count_blocks, shift, length):
    """Blocks a level-by-level scan of `shift` visits up to `length`."""
    return sum(count_blocks(shift, n) for n in range(1, length + 1))


class Tracer:
    """In-memory span recorder.  Spans are [name, start, end, parent]
    with parent the index of the enclosing span, or -1 at top level."""

    def __init__(self):
        self.spans = []
        self.observed = []  # (span index, value) per observed call
        self.active = True
        self._stack = []

    def install(self):
        for module_name, attr, span_name in TRACED:
            module = sys.modules["sftcd." + module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                wrapped = self._wrap(span_name, getattr(cls, method))
                setattr(cls, method, staticmethod(wrapped))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span_name, original)
            for name, mod in list(sys.modules.items()):
                if name != "sftcd" and not name.startswith("sftcd."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _wrap(self, name, fn):
        observe = OBSERVED.get(name, (None, None))[1]
        spans, stack, observed = self.spans, self._stack, self.observed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observed.append((index, observe(args, result)))
            return result

        return traced

    def top_level_s(self, start, end):
        """Time covered by top-level spans inside [start, end]."""
        return sum(
            e - s for _, s, e, parent in self.spans if parent < 0 and s >= start and e <= end
        )

    def layer_metrics(self, count_blocks):
        """Per-layer metrics `<module>.<function>.<quantity>` for every
        traced function, plus harness.scan_hit_ratio."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, s, e, parent in spans:
            if parent >= 0:
                child_s[parent] += e - s
        metrics = {}
        for _, _, span_name in TRACED:
            for quantity in ("calls", "busy_s", "self_s"):
                metrics[f"{span_name}.{quantity}"] = 0
        for i, (name, s, e, parent) in enumerate(spans):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += (e - s) - child_s[i]
            if not self._has_ancestor(i, name):
                metrics[f"{name}.busy_s"] += e - s
        totals = {name: 0 for name in OBSERVED}
        for index, value in self.observed:
            name = spans[index][0]
            if OBSERVED[name][0] == "blocks":
                value = blocks_scanned(count_blocks, *value)
            totals[name] += value
        for name, (quantity, _) in OBSERVED.items():
            if quantity in ("blocks", "witnesses", "length"):
                metrics[f"{name}.{quantity}"] = totals[name]
        calls = metrics["bridge.bounded_bridge_exists.calls"]
        found = totals["bridge.bounded_bridge_exists"]
        metrics["bridge.bounded_bridge_exists.found_ratio"] = found / calls if calls else 0.0
        scans = sum(
            1
            for i, span in enumerate(spans)
            if span[0] in SCANS and self._has_ancestor(i, "harness.run_case")
        )
        requested = totals["harness.run_case"]
        metrics["harness.scan_hit_ratio"] = scans / requested if requested else 0.0
        return metrics

    def _has_ancestor(self, index, name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path, stamp):
        with open(path, "w") as out:
            json.dump({"stamp": stamp, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, out)
