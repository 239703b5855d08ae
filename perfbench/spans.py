"""Span tracer for one traced pass.

Wraps the public functions of each icsie module that the per-layer
metrics name.  Every binding site is patched (structure and cli import
names from encoder and decoder, icsie re-exports them), so no call
escapes the trace.  Kernel functions are wrapped where callers look them
up, in icsie.kernels, and every wrapper calls through to the backend that
loaded; the backend modules themselves are left alone.

Each span records a name, start, end and parent index.  Spans are kept in
flat arrays and reduced to per-name call counts and self times (duration
minus the children's durations) when the pass ends.  Field arithmetic is
only counted: its time stays in the callers' self time.
"""

from __future__ import annotations

import sys
import time
from array import array

# (defining module, attribute, metric prefix); "Class.method" patches the class
SPANNED = (
    ("icsie.kernels", "gf2_span_intersects", "kernels.span_intersects"),
    ("icsie.kernels", "gf2_first_failing", "kernels.first_failing"),
    ("icsie.kernels", "gf2_rank", "kernels.rank"),
    ("icsie.encoder", "optimal_length", "encoder.optimal_length"),
    ("icsie.encoder", "minrank", "encoder.minrank"),
    ("icsie.encoder", "l_q", "encoder.l_q"),
    ("icsie.codeset", "interference_masks", "codeset.interference_masks"),
    ("icsie.codeset", "is_valid_generator", "codeset.is_valid_generator"),
    ("icsie.codeset", "oracle_decodable", "codeset.oracle_decodable"),
    ("icsie.structure", "bounds_report", "structure.bounds_report"),
    ("icsie.structure", "edge_deletion_bound", "structure.edge_deletion_bound"),
    ("icsie.structure", "gamma", "structure.gamma"),
    ("icsie.structure", "find_cycles", "structure.find_cycles"),
    ("icsie.structure", "max_disjoint_cycles", "structure.max_disjoint_cycles"),
    ("icsie.decoder", "decode_receiver", "decoder.decode_receiver"),
    ("icsie.decoder", "build_context", "decoder.build_context"),
    ("icsie.decoder", "find_correction", "decoder.find_correction"),
    ("icsie.linalg", "Matrix.null_space_basis", "linalg.null_space_basis"),
    ("icsie.linalg", "Matrix.rank", "linalg.rank"),
    ("icsie.linalg", "Matrix.vec_mul", "linalg.vec_mul"),
    ("icsie.cli", "run_simulation", "cli.run_simulation"),
    ("icsie.sigraph", "parse_instance", "sigraph.parse_instance"),
)
COUNTED = ("add", "sub", "mul", "inv")       # icsie.gfield.Field methods
KERNELS = ("kernels.span_intersects", "kernels.first_failing")
ROOTS = ("op", "cli")                         # one root span per operation


def _binding_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "icsie" or name.startswith("icsie."))
            and not name.startswith("icsie._gf2") and m is not None]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.field_ops = [0]
        self.originals: list[object] = []
        self.l_q = None

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return spanned

    def root(self, name: str):
        """Span wrapper for one whole operation."""
        return self.wrap(name, lambda fn, *a: fn(*a))

    def install(self) -> None:
        modules = _binding_modules()
        for modname, attr, metric in SPANNED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = getattr(cls, meth)
                setattr(cls, meth, self.wrap(metric, fn))
                self.originals.append(fn)
                continue
            fn = getattr(owner, attr)
            if metric == "encoder.l_q":
                self.l_q = fn
            wrapper = self.wrap(metric, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
            self.originals.append(fn)
        field_cls = sys.modules["icsie.gfield"].Field
        counter = self.field_ops
        for meth in COUNTED:
            fn = getattr(field_cls, meth)

            def counted(*args, _fn=fn):
                counter[0] += 1
                return _fn(*args)
            setattr(field_cls, meth, counted)

    def escaped(self) -> list[str]:
        """Binding sites that still hold an unwrapped function."""
        out = []
        for mod in _binding_modules():
            for key, val in vars(mod).items():
                if any(val is fn for fn in self.originals):
                    out.append(f"{mod.__name__}.{key}")
        return out

    def summary(self) -> dict:
        """Per-name calls and self time, plus the derived per-layer counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        opt = self._name_id("encoder.optimal_length")
        roots = {self._name_id(r) for r in ROOTS}
        kernels = {self._name_id(k) for k in KERNELS}
        top_opt = kernel_in_opt = 0
        for i in range(n):
            nid = self.name_of[i]
            p = self.parent[i]
            if nid == opt and p >= 0 and self.name_of[p] in roots:
                top_opt += 1
            elif nid in kernels:
                while p >= 0 and self.name_of[p] != opt:
                    p = self.parent[p]
                kernel_in_opt += p >= 0
        info = self.l_q.cache_info()
        return {"calls": calls, "self_s": self_s, "spans": n,
                "field_ops": self.field_ops[0],
                "top_level_optimal_length": top_opt,
                "kernel_calls_in_optimal_length": kernel_in_opt,
                "l_q_hits": info.hits, "l_q_misses": info.misses,
                "escaped": self.escaped()}
