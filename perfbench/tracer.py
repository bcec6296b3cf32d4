"""Per-layer tracing of cantorwalk from outside the package.

The tracer rebinds the public functions and methods of each cantorwalk
module to timing wrappers: module functions in every ``cantorwalk.*``
namespace that imported them, methods on their classes.  Each wrapped call
is a span with a layer, a start, an end and a parent (the innermost wrapped
call active when it started).  Spans are aggregated as they close, so memory
stays flat however many calls a run makes:

* per layer, self time: span time minus the time of its child spans;
* per function, call count, inclusive time and self time;
* named counters, updated by hooks at the layer boundaries;
* the shallow spans themselves (up to ``SPAN_DEPTH`` below the root), kept
  whole for the trace file.

The wrapper's own bookkeeping is timed and charged to the ``trace`` layer,
not to the caller, so that the self times of all layers, the harness and the
tracer add up to the traced wall time.  Nothing under ``src/`` is modified;
``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("harness", "trace", "space.region", "space.ifs", "maps", "walk",
          "certify", "measure_solver", "giet", "serialize", "cli")
HARNESS, TRACE, REGION, IFS, MAPS, WALK, CERTIFY, SOLVER, GIET, SER, CLI = \
    range(len(LAYERS))

SPAN_DEPTH = 3


# (owner, public names, layer); the owner is a cantorwalk module or a class
# in one.  Small accessors that run millions of times (CompactSet.contains,
# PAHomeo.branch_at, Trajectory.index, Branch.value) stay unwrapped; their
# time is self time of the layer that calls them.  A name the program no
# longer has is skipped and listed in the trace file.
TARGETS = (
    ("space.Region", ("whole", "empty", "from_intervals", "from_pieces",
                      "cylinder", "contains", "is_empty", "union", "intersect",
                      "complement", "difference", "subset_of", "disjoint_from",
                      "same_set", "infimum", "supremum", "diameter",
                      "sample_point"), REGION),
    ("space.PointSet", ("of",), REGION),
    ("space", ("epsilon_neighborhood", "epsilon_neighborhood_of_values",
               "delta_m", "min_pairwise_distance", "point_to_set_distance",
               "hausdorff_distance", "make_compact_set"), REGION),
    ("space.CompactSet", ("from_intervals",), REGION),
    ("space.Ifs", ("cylinder", "addresses", "intervals_at",
                   "contains_limit_point", "limit_gap_containing",
                   "adjacent_limit_gap", "is_gap_pair"), IFS),
    ("space.CompactSet", ("from_ifs", "contains_limit_point",
                          "limit_gap_containing", "adjacent_limit_gap",
                          "is_gap_pair", "refine", "addresses", "cylinder",
                          "decompose_into_cylinders"), IFS),
    ("space", ("ternary_cantor",), IFS),
    ("maps", ("apply", "pa_homeo", "identity_map", "from_prefix_table",
              "compose", "invert", "power", "equals", "is_identity",
              "break_pairs", "break_points", "is_regular_on",
              "regularity_radius", "image", "image_of_set", "slope_range",
              "distortion"), MAPS),
    ("walk", ("make_model", "forward_word", "backward_word", "forward_orbit",
              "backward_value", "measure_cells", "uniform_cell_measure",
              "estimate_stationary_measure", "preimage_cell_indices",
              "invariance_residual", "estimate_entropy", "classify_pair",
              "dichotomy_report", "contraction_scan", "break_accumulation",
              "backward_cluster", "proximality_degree", "delta_sum_statistic",
              "global_contraction_report"), WALK),
    ("walk.Trajectory", ("__init__", "word"), WALK),
    ("walk.WalkModel", ("is_symmetric", "generator"), WALK),
    ("certify", ("as_budgets", "find_finite_orbit", "find_displacement",
                 "find_contraction", "stabilize_contraction_pair",
                 "verify_ping_pong", "assemble_free_pair", "free_group_sanity",
                 "solve_invariant_measure", "verify_invariant_measure",
                 "verify_finite_orbit", "periodic_points", "check_morse_smale",
                 "find_morse_smale"), CERTIFY),
    ("measure_solver", ("solve_feasibility",), SOLVER),
    ("giet", ("giet_from_branches", "rotation", "discontinuity_closure",
              "one_sided_orbit", "blow_up"), GIET),
    ("serialize", ("space_to_obj", "space_from_obj", "map_to_obj",
                   "map_from_obj", "region_to_obj", "region_from_obj",
                   "giet_to_obj", "giet_from_obj", "certificate_to_obj",
                   "certificate_from_obj", "verify_certificate",
                   "blowup_to_scenario", "dumps", "write_json_atomic",
                   "write_meta"), SER),
    ("cli", ("parse_scenario", "serialize_scenario", "run_scenario", "main"),
     CLI),
)


class Tracer:
    def __init__(self):
        self.self_time = [0.0] * len(LAYERS)
        self.book = [0.0]            # tracer bookkeeping seconds
        self.fn = {}                 # name -> [calls, inclusive s, self s]
        self.counters = {}
        self.spans = []              # (name, start, end, parent index)
        self.root = [HARNESS, 0.0, -1]
        self.stack = [self.root]
        self._saved = []
        self.missing = []            # target names the program lacks
        self._t0 = None

    # -- counters ---------------------------------------------------------

    def count(self, key, by=1):
        self.counters[key] = self.counters.get(key, 0) + by

    def high(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, layer, pre, post):
        stack, book, clock = self.stack, self.book, time.perf_counter
        selft, spans = self.self_time, self.spans
        st = self.fn.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kw):
            t_in = clock()
            parent = stack[-1]
            if pre is not None:
                pre(parent[0], args)
            depth = len(stack)
            frame = [layer, 0.0, -1]
            if depth <= SPAN_DEPTH:
                frame[2] = len(spans)
                spans.append([name, 0.0, 0.0, parent[2]])
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kw)
                return result
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                s = d - frame[1]
                st[0] += 1
                st[1] += d
                st[2] += s
                selft[layer] += s
                if frame[2] >= 0:
                    spans[frame[2]][1:3] = [t0, t1]
                if post is not None and result is not None:
                    post(parent[0], args, result)
                w = clock() - t_in
                parent[1] += w
                book[0] += w - d

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        """Wrap every target in the loaded cantorwalk modules."""
        hooks = self._hooks()
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cantorwalk" or n.startswith("cantorwalk.")]
        for path, attrs, layer in TARGETS:
            module, _, cls = path.partition(".")
            owner = sys.modules.get(f"cantorwalk.{module}")
            if cls and owner is not None:
                owner = getattr(owner, cls, None)
            for attr in attrs:
                name = f"{path}.{attr}"
                try:
                    raw = inspect.getattr_static(owner, attr)
                except AttributeError:
                    self.missing.append(name)
                    continue
                pre, post = hooks.get(name, (None, None))
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, name, layer, pre, post))
                elif isinstance(raw, property):
                    new = property(self._wrap(raw.fget, name, layer, pre, post))
                else:
                    new = self._wrap(raw, name, layer, pre, post)
                if inspect.ismodule(owner):
                    for m in modules:
                        for key, val in list(vars(m).items()):
                            if val is raw:
                                self._saved.append((m, key, raw))
                                setattr(m, key, new)
                else:
                    self._saved.append((owner, attr, raw))
                    setattr(owner, attr, new)

    def wrap_harness(self, fn, name):
        """``fn`` as a harness span, so the layer spans of one item nest
        under it in the trace file."""
        return self._wrap(fn, name, HARNESS, None, None)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self):
        wall = time.perf_counter() - self._t0
        self.self_time[HARNESS] += wall - self.root[1]
        self.self_time[TRACE] = self.book[0]
        return wall

    # -- counter hooks ----------------------------------------------------

    def _hooks(self):
        count, high = self.count, self.high

        def region_entry(parent, args):
            if parent != REGION:
                count("space.region_ops")
                n = 0
                for a in args:
                    p = getattr(a, "pieces", None)
                    if isinstance(p, tuple):
                        n += len(p)
                    elif isinstance(a, (list, tuple)):
                        n += len(a)
                count("space.pieces_in", n)

        def ifs_entry(parent, args):
            if parent != IFS:
                count("space.ifs_descent_calls")

        def subset_post(parent, args, result):
            if parent == CERTIFY:
                count("certify.inclusion_checks")
                if result:
                    count("certify.inclusion_hits")

        def compose_pre(parent, args):
            if parent == CERTIFY:
                count("certify.words_composed")

        def compose_post(parent, args, result):
            bs = result.branches
            high("maps.branches.max", len(bs))
            high("maps.offset_den_bits.max",
                 max((b.offset.denominator.bit_length() for b in bs), default=0))

        def image_pre(parent, args):
            if parent in (WALK, CLI):
                count("walk.cell_images")

        def chain_pre(parent, args):
            n_steps = args[1]
            restarts = args[3] if len(args) > 3 else 4
            count("walk.chain_steps", n_steps * restarts)

        def lp_pre(parent, args):
            rows = args[0]
            m = len(rows)
            n = len(rows[0]) if m else 0
            high("measure_solver.lp_rows", m)
            high("measure_solver.lp_cols", n)
            count("measure_solver.cells", m * n)
            count("measure_solver.nnz", sum(1 for r in rows for v in r if v))

        def blow_post(parent, args, result):
            count("giet.blown_points", len(result.blown_points))

        def dumps_post(parent, args, result):
            count("serialize.bytes_written", len(result.encode()))

        hooks = {}
        for name in ("union", "intersect", "complement", "difference",
                     "disjoint_from", "same_set", "is_empty", "contains",
                     "infimum", "supremum", "diameter", "sample_point",
                     "whole", "empty", "from_intervals", "from_pieces",
                     "cylinder"):
            hooks[f"space.Region.{name}"] = (region_entry, None)
        hooks["space.Region.subset_of"] = (region_entry, subset_post)
        for name in ("epsilon_neighborhood", "epsilon_neighborhood_of_values"):
            hooks[f"space.{name}"] = (region_entry, None)
        for name in ("Ifs.contains_limit_point", "Ifs.limit_gap_containing",
                     "Ifs.adjacent_limit_gap", "Ifs.is_gap_pair",
                     "CompactSet.contains_limit_point",
                     "CompactSet.limit_gap_containing",
                     "CompactSet.adjacent_limit_gap", "CompactSet.is_gap_pair",
                     "CompactSet.decompose_into_cylinders"):
            hooks[f"space.{name}"] = (ifs_entry, None)
        hooks["maps.compose"] = (compose_pre, compose_post)
        hooks["maps.image"] = (image_pre, None)
        hooks["walk.estimate_stationary_measure"] = (chain_pre, None)
        hooks["measure_solver.solve_feasibility"] = (lp_pre, None)
        hooks["giet.blow_up"] = (None, blow_post)
        hooks["serialize.dumps"] = (None, dumps_post)
        return hooks

    # -- results ----------------------------------------------------------

    def layer_metrics(self, wall: float) -> dict:
        """The per-layer metrics, as {name: (value, unit)}."""
        st = self.self_time
        c = self.counters.get
        incl = {k: v[1] for k, v in self.fn.items()}
        calls = {k: v[0] for k, v in self.fn.items()}
        chain_steps = c("walk.chain_steps", 0)
        ops = c("space.region_ops", 0)
        checks = c("certify.inclusion_checks", 0)
        cells = c("measure_solver.cells", 0)
        named = sum(st[i] for i in range(len(LAYERS)) if i not in (HARNESS, TRACE))
        m = {
            "space.region_ops": (ops, "count"),
            "space.region_self_s": (st[REGION], "s"),
            "space.pieces_in.mean": (c("space.pieces_in", 0) / ops if ops else 0.0,
                                     "count"),
            "space.ifs_descent_calls": (c("space.ifs_descent_calls", 0), "count"),
            "space.ifs_descent_self_s": (st[IFS], "s"),
            "maps.compose_calls": (calls.get("maps.compose", 0), "count"),
            "maps.compose_s": (incl.get("maps.compose", 0.0), "s"),
            "maps.image_calls": (calls.get("maps.image", 0), "count"),
            "maps.image_s": (incl.get("maps.image", 0.0), "s"),
            "maps.break_pairs_s": (incl.get("maps.break_pairs", 0.0), "s"),
            "maps.branches.max": (c("maps.branches.max", 0), "count"),
            "maps.offset_den_bits.max": (c("maps.offset_den_bits.max", 0), "bits"),
            "maps.self_s": (st[MAPS], "s"),
            "walk.forward_word_s": (incl.get("walk.forward_word", 0.0), "s"),
            "walk.cell_images": (c("walk.cell_images", 0), "count"),
            "walk.contraction_scan_s": (incl.get("walk.contraction_scan", 0.0), "s"),
            "walk.chain_steps": (chain_steps, "count"),
            "walk.chain_us_per_step": (
                1e6 * incl.get("walk.estimate_stationary_measure", 0.0) / chain_steps
                if chain_steps else 0.0, "us"),
            "walk.preimage_cells_s": (incl.get("walk.preimage_cell_indices", 0.0), "s"),
            "walk.self_s": (st[WALK], "s"),
            "certify.self_s": (st[CERTIFY], "s"),
            "certify.inclusion_checks": (checks, "count"),
            "certify.inclusion_hit_ratio": (
                c("certify.inclusion_hits", 0) / checks if checks else 0.0, "ratio"),
            "certify.words_composed": (c("certify.words_composed", 0), "count"),
            "measure_solver.solve_s": (incl.get("measure_solver.solve_feasibility", 0.0), "s"),
            "measure_solver.lp_rows": (c("measure_solver.lp_rows", 0), "count"),
            "measure_solver.lp_cols": (c("measure_solver.lp_cols", 0), "count"),
            "measure_solver.nnz_frac": (
                c("measure_solver.nnz", 0) / cells if cells else 0.0, "ratio"),
            "measure_solver.self_s": (st[SOLVER], "s"),
            "giet.blow_up_s": (incl.get("giet.blow_up", 0.0), "s"),
            "giet.blown_points": (c("giet.blown_points", 0), "count"),
            "giet.self_s": (st[GIET], "s"),
            "serialize.dumps_s": (incl.get("serialize.dumps", 0.0), "s"),
            "serialize.bytes_written": (c("serialize.bytes_written", 0), "bytes"),
            "serialize.verify_s": (incl.get("serialize.verify_certificate", 0.0), "s"),
            "serialize.self_s": (st[SER], "s"),
            "cli.parse_s": (incl.get("cli.parse_scenario", 0.0), "s"),
            "cli.self_s": (st[CLI], "s"),
            "harness.self_s": (st[HARNESS], "s"),
            "trace.self_s": (st[TRACE], "s"),
            "trace.wall_s": (wall, "s"),
            "trace.layers_frac": (named / wall, "ratio"),
            "trace.attributed_frac": (sum(st) / wall, "ratio"),
        }
        return m

    def dump(self) -> dict:
        """Everything the trace file holds."""
        return {
            "missing": self.missing,
            "layers": {name: self.self_time[i] for i, name in enumerate(LAYERS)},
            "functions": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]}
                          for k, v in sorted(self.fn.items()) if v[0]},
            "counters": dict(sorted(self.counters.items())),
            "spans": [{"name": n, "start": s - self._t0, "end": e - self._t0,
                       "parent": p} for n, s, e, p in self.spans],
        }
