"""Spans and work counters around the public functions of each camech layer.

The tracer patches from outside the package; nothing in ``src/camech`` knows
about it.  Each traced name is replaced in its defining module or class and
in every loaded ``camech`` module that bound it with ``from .x import f``, so
no caller can reach the unwrapped function.  A missed binding would show as
an under-counted layer, which ``run.py`` checks on every traced run.

A span has a name, start, end, parent span and unit id.  Self time is the
span's duration minus the time its child spans cover: every span adds its
duration to its parent's child total when it closes.  Every span is kept
in memory, one typed array per field (about 42 bytes a span; one deviation
search opens about ten thousand), and written out when the run ends.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from dataclasses import replace

from camech import axioms, cli, documents, exact, experiments, greedy, model, money, norm
from camech.errors import TiesPresent

#: Span unit id of work done while generating inputs, before the timed phase.
SETUP_UNIT = -1


def _sign_refined(tracer, args):
    # Money.sign() refines square-root bounds exactly when the value is
    # irrational and its coefficients (rational part included) disagree in sign.
    value = args[0]
    if value.is_rational:
        return
    coefficients = [c for _, c in value.terms()]
    if any(c > 0 for c in coefficients) and any(c < 0 for c in coefficients):
        tracer.count("money.sign.refined_calls")


_all_amounts_rational = model.AuctionInstance.__dict__["all_amounts_rational"].func


def _rank_irrational(tracer, args):
    # evaluated without filling the instance's cached property, so tracing
    # does not move that work out of `exact._weights`
    if not _all_amounts_rational(args[0]):
        tracer.count("norm.rank.irrational_calls")


def _rank_raised(tracer, exc):
    if isinstance(exc, TiesPresent):
        tracer.count("norm.rank.ties_raised")


def _dp_cells(tracer, args):
    instance, solver = args[0], args[1]
    if solver is exact.SolverKind.BITMASK_DP:
        tracer.count("exact.dp_cells", len(instance.bids) << len(instance.goods))


def _critical_probes(tracer, result):
    tracer.count("axioms.critical_value.probes", result.probes)


#: (layer name, owner, attribute, hooks) for every traced function.  Hooks
#: are ``before(tracer, args)``, ``after(tracer, result)`` and
#: ``error(tracer, exc)``; they run outside the span's own timing.  The
#: comments give the end-to-end metric each layer is predicted to move.
TARGETS = (
    # items_per_s on axioms-lhalf, a little on deviation-l1, none on gva-dp
    ("money.compare", money.Money, "compare", {}),
    ("money.mul", money.Money, "__mul__", {}),  # __rmul__ is the same function
    ("money.sign", money.Money, "sign", {"before": _sign_refined}),
    # items_per_s and item_ms_p50 on deviation-l1 and axioms-lhalf
    ("norm.rank", norm, "rank", {"before": _rank_irrational, "error": _rank_raised}),
    # items_per_s on deviation-l1
    ("model.with_bid", model.AuctionInstance, "with_bid", {}),
    ("model.assemble_outcome", model, "assemble_outcome", {}),
    # items_per_s and item_ms_p90 on deviation-l1; barely cli-gen-run
    ("greedy.run_greedy", greedy, "run_greedy", {}),
    ("greedy.greedy_allocate", greedy, "greedy_allocate", {}),
    ("greedy.blocker", greedy, "blocker", {}),
    # items_per_s and item_ms_p90 on gva-dp only
    ("exact.optimal_allocation", exact, "optimal_allocation", {"before": _dp_cells}),
    ("exact.run_gva", exact, "run_gva", {}),
    # items_per_s on deviation-l1 and axioms-lhalf
    ("axioms.find_profitable_deviation", axioms, "find_profitable_deviation", {}),
    ("axioms.critical_value", axioms, "critical_value", {"after": _critical_probes}),
    # setup_s on the library workloads, item_ms_p50 on cli-gen-run
    ("experiments.random_instance", experiments, "random_instance", {}),
    # item_ms_p50 on cli-gen-run
    ("documents.parse_instance_text", documents, "parse_instance_text", {}),
    ("documents.instance_document", documents, "instance_document", {}),
    ("documents.outcome_document", documents, "outcome_document", {}),
    ("documents.to_json", documents, "to_json", {}),
    # item_ms_p50 and item_ms_p90 on cli-gen-run
    ("cli.main", cli, "main", {}),
    ("cli.build_parser", cli, "build_parser", {}),
)

LAYER_NAMES = tuple(t[0] for t in TARGETS)

#: Counters the hooks and the counting mechanism feed.
COUNTERS = (
    "money.sign.refined_calls",
    "norm.rank.irrational_calls",
    "norm.rank.ties_raised",
    "exact.dp_cells",
    "axioms.critical_value.probes",
    "axioms.mechanism_runs",
)


class LayerTotals:
    """Per-layer totals for one stretch of a run (set-up or timed phase)."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.self_ns = dict.fromkeys(LAYER_NAMES, 0)
        self.total_ns = dict.fromkeys(LAYER_NAMES, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)


class Tracer:
    """Installs span-recording wrappers and collects their totals."""

    def __init__(self):
        self.unit = SETUP_UNIT
        self.totals = LayerTotals()
        self.origin_ns = time.perf_counter_ns()
        # retained spans, one column per field
        self.span_id = array("q")
        self.span_name = array("h")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_unit = array("q")
        self.spans_opened = 0
        self._stack = [[0, -1]]  # frames of [child ns, span id]; root has id -1
        self._patched: list[tuple[object, str, object]] = []

    def count(self, counter: str, n: int = 1) -> None:
        self.totals.counters[counter] += n

    def counting(self, mech: axioms.Mechanism) -> axioms.Mechanism:
        """The same mechanism, counting each run into ``axioms.mechanism_runs``."""
        run = mech.run

        def counting_run(instance):
            self.count("axioms.mechanism_runs")
            return run(instance)

        return replace(mech, run=counting_run)

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "camech" or n.startswith("camech.")]
        for index, (_, owner, attr, hooks) in enumerate(TARGETS):
            original = owner.__dict__[attr]
            wrapper = self._wrap(index, original, **hooks)
            holders = modules if isinstance(owner, types.ModuleType) else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    def _wrap(self, index, fn, before=None, after=None, error=None):
        name = LAYER_NAMES[index]
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        def close(frame, parent, start):
            end = clock()
            stack.pop()
            duration = end - start
            parent[0] += duration
            totals = tracer.totals
            totals.calls[name] += 1
            totals.self_ns[name] += duration - frame[0]
            totals.total_ns[name] += duration
            tracer.span_id.append(frame[1])
            tracer.span_name.append(index)
            tracer.span_start.append(start - tracer.origin_ns)
            tracer.span_end.append(end - tracer.origin_ns)
            tracer.span_parent.append(parent[1])
            tracer.span_unit.append(tracer.unit)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            parent = stack[-1]
            frame = [0, tracer.spans_opened]
            tracer.spans_opened += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(frame, parent, start)
                if error is not None:
                    error(tracer, exc)
                raise
            close(frame, parent, start)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> dict:
        """Write every span to ``path`` and return the header that reads it.

        The file holds the columns one after another as raw native-endian
        arrays, in the header's order; times are ns since the tracer started.
        """
        columns = {
            "id": self.span_id,
            "name": self.span_name,
            "start_ns": self.span_start,
            "end_ns": self.span_end,
            "parent": self.span_parent,
            "unit": self.span_unit,
        }
        with open(path, "wb") as fh:
            for column in columns.values():
                column.tofile(fh)
        return {
            "file": str(path.name),
            "spans": len(self.span_id),
            "columns": [[key, column.typecode] for key, column in columns.items()],
            "names": list(LAYER_NAMES),
        }


def layer_metrics(timed: LayerTotals, setup: LayerTotals, cache_delta: tuple[int, int]) -> dict:
    """Per-layer metrics of a traced run, as ``name -> (value, unit)``.

    Everything is summed over the timed phase, except the two
    ``experiments.random_instance.setup_*`` entries, which cover input
    generation.  ``cache_delta`` is the (hits, misses) growth of
    ``norm.bundle_ratio_power.cache_info()`` over the timed phase.
    """
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.calls"] = (timed.calls[name], "count")
        out[f"{name}.self_ms"] = (timed.self_ns[name] / 1e6, "ms")
    c = timed.counters
    rank_calls = timed.calls["norm.rank"]
    hits, misses = cache_delta
    out["money.sign.refined_calls"] = (c["money.sign.refined_calls"], "count")
    out["norm.rank.irrational_ratio"] = (
        c["norm.rank.irrational_calls"] / rank_calls if rank_calls else 0.0, "ratio")
    out["norm.rank.ties_raised"] = (c["norm.rank.ties_raised"], "count")
    out["norm.bundle_ratio_power.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    # n * 2**k per bitmask-DP solve, derived from the instance size, not counted
    out["exact.dp_cells"] = (c["exact.dp_cells"], "computed_cells")
    out["axioms.critical_value.probes"] = (c["axioms.critical_value.probes"], "count")
    out["axioms.mechanism_runs"] = (c["axioms.mechanism_runs"], "count")
    out["experiments.random_instance.setup_calls"] = (
        setup.calls["experiments.random_instance"], "count")
    out["experiments.random_instance.setup_self_ms"] = (
        setup.self_ns["experiments.random_instance"] / 1e6, "ms")
    return out
