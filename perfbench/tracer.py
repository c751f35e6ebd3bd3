"""Outside-in tracer for the umbilic package.

Wraps every public function of the traced layers (`surfaces`, `geometry`,
`quadrature`, `verifier`, `cli`) from outside the package. Each name is
patched where its caller looks it up: a function imported into another
module (`geometry.evaluate_chart` is `surfaces.evaluate_chart`) is replaced
there too. Spans are kept in memory and written out once, at the end.

A span is [id, parent, name, start, end, nodes, order, grid]: `nodes` is the
batch size of a (u, v) or PointGeometry argument, `order` the jet order
argument, `grid` the (nu, nv) of a GridSpec argument. The program is
single-threaded, so a span's children never overlap and its self time is
its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("surfaces", "geometry", "quadrature", "verifier", "cli")
# every module whose namespace may hold a reference to a traced function
MODULES = ("umbilic",) + tuple(f"umbilic.{m}" for m in LAYERS)
# kernels whose evaluated (u, v) nodes are kept to measure repeated work
NODE_KERNELS = {"geometry.classification_values": "class", "geometry.fundamental_forms": "full"}
ID, PARENT, NAME, START, END, NODES, ORDER, GRID = range(8)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.nodes = {kind: [] for kind in NODE_KERNELS.values()}
        self._stack = []
        self._patches = []

    # -- patching ---------------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for layer in LAYERS:
            mod = importlib.import_module(f"umbilic.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for site in modules:
                    for name, value in list(vars(site).items()):
                        if value is fn:
                            setattr(site, name, wrapped)
                            self._patches.append((site, name, fn))

    def uninstall(self):
        for site, name, fn in reversed(self._patches):
            setattr(site, name, fn)
        self._patches.clear()

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        keep = self.nodes.get(NODE_KERNELS.get(name))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            nodes, order, grid = _describe(bound.arguments)
            if keep is not None:
                keep.append(_node_keys(bound.arguments["u"], bound.arguments["v"]))
            span = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0,
                    nodes, order, grid]
            spans.append(span)
            stack.append(span[ID])
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    # -- output -----------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s[ID], "parent": s[PARENT], "name": s[NAME],
                    "start": s[START], "end": s[END], "nodes": s[NODES], "order": s[ORDER],
                }) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics derived from the spans and the recorded nodes."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        self_t = list(dur)
        for s in spans:
            if s[PARENT] is not None:
                self_t[s[PARENT]] -= dur[s[ID]]

        def pick(name, order=None):
            return [s for s in spans if s[NAME] == name and (order is None or s[ORDER] == order)]

        def busy(name):
            # outermost spans of `name` only, so recursion is not counted twice
            total = 0.0
            for s in pick(name):
                p = s[PARENT]
                while p is not None and spans[p][NAME] != name:
                    p = spans[p][PARENT]
                if p is None:
                    total += dur[s[ID]]
            return total

        def nodes(name, order=None):
            return sum(s[NODES] for s in pick(name, order))

        def ns_per_node(name, order=None):
            sel = pick(name, order)
            n = sum(s[NODES] for s in sel)
            return 1e9 * sum(self_t[s[ID]] for s in sel) / n if n else 0.0

        # nearest region_integrals ancestor of every span (parents precede children)
        region = [None] * len(spans)
        for s in spans:
            if s[NAME] == "quadrature.region_integrals":
                region[s[ID]] = s[ID]
            elif s[PARENT] is not None:
                region[s[ID]] = region[s[PARENT]]
        regions = pick("quadrature.region_integrals")
        corners = sum((s[GRID][0] + 1) * (s[GRID][1] + 1) for s in regions)
        centers = sum(s[GRID][0] * s[GRID][1] for s in regions)

        def nodes_in_regions(name):
            return sum(s[NODES] for s in pick(name) if region[s[ID]] is not None)

        return {
            "quadrature.convergence_study.busy_s": busy("quadrature.convergence_study"),
            "quadrature.integrate.calls": len(pick("quadrature.integrate")),
            "geometry.repeat_share_class": _repeat_share(self.nodes["class"]),
            "geometry.repeat_share_full": _repeat_share(self.nodes["full"]),
            "geometry.classification_values.nodes": nodes("geometry.classification_values"),
            "geometry.classification_values.self_ns_per_node":
                ns_per_node("geometry.classification_values"),
            "quadrature.probe_nodes":
                nodes_in_regions("geometry.classification_values") - corners,
            "quadrature.leaf_nodes": nodes_in_regions("geometry.fundamental_forms") - centers,
            "quadrature.corner_nodes": corners,
            "quadrature.region_integrals.busy_s": busy("quadrature.region_integrals"),
            "quadrature.region_integrals.self_s":
                sum(self_t[s[ID]] for s in regions),
            "quadrature.h_sup_estimate.busy_s": busy("quadrature.h_sup_estimate"),
            "geometry.fundamental_forms.nodes_o3": nodes("geometry.fundamental_forms", 3),
            "geometry.fundamental_forms.self_ns_per_node_o3":
                ns_per_node("geometry.fundamental_forms", 3),
            "geometry.fundamental_forms.self_ns_per_node_o4":
                ns_per_node("geometry.fundamental_forms", 4),
            "geometry.covariant_data.nodes": nodes("geometry.covariant_data"),
            "geometry.covariant_data.self_ns_per_node": ns_per_node("geometry.covariant_data"),
            "geometry.identity_residuals.self_ns_per_node":
                ns_per_node("geometry.identity_residuals"),
            "geometry.bochner_residual.self_ns_per_node":
                ns_per_node("geometry.bochner_residual"),
            "surfaces.evaluate_chart.nodes": nodes("surfaces.evaluate_chart"),
            "surfaces.evaluate_chart.self_ns_per_node": ns_per_node("surfaces.evaluate_chart"),
            "verifier.verify_prel.self_s": sum(self_t[s[ID]] for s in pick("verifier.verify_prel")),
            "verifier.sharpness_gap.self_s":
                sum(self_t[s[ID]] for s in pick("verifier.sharpness_gap")),
            # the cli layer's own time: main plus the cmd_* and parser it calls
            "cli.main.self_s": sum(self_t[s[ID]] for s in spans if s[NAME].startswith("cli.")),
            "surfaces.load_definition.busy_s": busy("surfaces.load_definition"),
            "surfaces.preset.busy_s": busy("surfaces.preset"),
        }


def _describe(arguments):
    """(nodes, order, grid) of one call, from its bound arguments."""
    nodes, grid = 0, None
    if "u" in arguments and "v" in arguments:
        nodes = int(np.broadcast(arguments["u"], arguments["v"]).size)
    elif "pg" in arguments:
        nodes = int(np.prod(arguments["pg"].batch_shape))
    g = arguments.get("grid")
    if g is not None and hasattr(g, "nu"):
        grid = (g.nu, g.nv)
    order = arguments.get("order")
    return nodes, order if isinstance(order, int) else None, grid


def _node_keys(u, v):
    """The (u, v) nodes of one call as exact complex keys u + iv."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    keys = np.empty(u.size, dtype=complex)
    keys.real = u.ravel()
    keys.imag = v.ravel()
    return keys


def _repeat_share(parts) -> float:
    """Share of nodes that were already evaluated earlier by the same kernel."""
    if not parts:
        return 0.0
    keys = np.concatenate(parts)
    parts.clear()
    return 1.0 - np.unique(keys).size / keys.size


def jet_mul_counts(spec, side: int = 8) -> dict:
    """Jet2.__mul__ calls per kernel call on a side x side batch (count only).

    The count is a property of the chart and the kernel, not of the batch
    size, so a small batch gives the same number without timing anything.
    """
    from umbilic import geometry, jets, surfaces

    us, vs = surfaces.interior_axes(spec, side, side)
    uu, vv = (a.ravel() for a in np.meshgrid(us, vs, indexing="ij"))
    count = [0]
    original = jets.Jet2.__mul__

    def counting(a, b):
        count[0] += 1
        return original(a, b)

    kernels = {
        "jets.mul_per_batch_o2": lambda: geometry.classification_values(spec, uu, vv),
        "jets.mul_per_batch_o3": lambda: geometry.fundamental_forms(spec, uu, vv, 3),
        "jets.mul_per_batch_o4": lambda: geometry.fundamental_forms(spec, uu, vv, 4),
    }
    out = {}
    jets.Jet2.__mul__ = jets.Jet2.__rmul__ = counting
    try:
        for name, kernel in kernels.items():
            count[0] = 0
            kernel()
            out[name] = count[0]
    finally:
        jets.Jet2.__mul__ = jets.Jet2.__rmul__ = original
    return out
