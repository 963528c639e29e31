"""Timing spans for the traced benchmark run, installed from outside the package.

The traced run replaces module attributes of `partial_records` with wrappers
that record one span per call: name, start, end and the span that was open
when the call began.  The package itself is not changed; the CLI and `run`
look these attributes up at call time, so their calls go through the
wrappers.  Spans stay in memory until the repetition ends; then the
originals are put back.  A span's self time is its duration minus the
durations of its direct children (one thread, so children never overlap).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = defaultdict(int)
        self._open = []

    def wrap(self, name, fn, before=None, after=None):
        """`fn` inside a span; `before(args)` and `after(result, args)` count
        outside it, in the caller's self time."""
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append([name, clock(), 0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                open_.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def reduce(self):
        """{span name: [calls, inclusive seconds, self seconds]}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _parent), inner in zip(self.spans, child_ns):
            row = out[name]
            row[0] += 1
            row[1] += (end - start) / 1e9
            row[2] += (end - start - inner) / 1e9
        return dict(out)

    def dump(self, path):
        """Write every span as [name, start_s, end_s, parent], times from the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [[n, (s - t0) / 1e9, (e - t0) / 1e9, p] for n, s, e, p in self.spans],
                fh,
                separators=(",", ":"),
            )


def install(tracer):
    """Wrap the attributes the CLI and `run` call through; return a function
    that puts the originals back.

    Every wrapped attribute is an engine detail.  A later change to the
    package may legitimately stop calling one; its span then reads zero,
    which is not an error of the benchmark.
    """
    from partial_records import discrete, distributions, exact, oracle, plan, simulate

    counts = tracer.counts
    originals = []

    def patch(module, attr, **hooks):
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, tracer.wrap(f"{module.__name__.rsplit('.', 1)[1]}.{attr}",
                                          getattr(module, attr), **hooks))

    def count_values(args):
        counts["distributions.values_transformed"] += int(np.size(args[0]))

    def traced_density(spec):
        return dataclasses.replace(
            spec,
            inverse_cdf=tracer.wrap("distributions.inverse_cdf", spec.inverse_cdf,
                                    before=count_values),
        )

    def after_run(result, _args):
        counts["simulate.ties"] += int(result.tie_count)
        counts["simulate.values_kept"] += sum(
            int(np.count_nonzero(~np.isnan(v))) for v in result.record_values.values()
        )

    def after_moments(stats, _args):
        bits = max(stats.mean.denominator.bit_length(), stats.variance.denominator.bit_length())
        counts["exact.denominator_bits"] = max(counts["exact.denominator_bits"], bits)

    def after_discretize(model, _args):
        counts["discrete.atoms"] += model.atom_count

    def after_joint_table(table, args):
        # The enumeration ranges over every ordering of the relevant indices.
        relevant = oracle.relevant_indices(args[0], max(table, key=len))
        counts["oracle.orderings"] += math.factorial(len(relevant))

    # Each comment says how a later change may legitimately stop calling the
    # attribute; its span then reads zero.
    # Zero if inputs are generated in another plan format.
    patch(plan, "save_plan_file")
    # Zero with a compact or streamed plan-file reader.
    patch(plan, "load_plan_file")
    # Zero if loading returns a validated plan directly.
    patch(plan, "as_validated")
    # Zero if the hash is taken while loading.
    patch(plan, "plan_hash")
    # Zero if the CLI resolves density names another way.  The spec it
    # returns has a timed inverse_cdf, which a rank-domain `run` may skip.
    originals.append((distributions, "builtin", distributions.builtin))
    build = tracer.wrap("distributions.builtin", distributions.builtin)
    distributions.builtin = lambda name: traced_density(build(name))
    # Zero if the CLI calls another engine entry point.
    patch(simulate, "run", after=after_run)
    # Zero if columns come from one re-keyed generator instead.
    patch(simulate, "column")
    # Zero if the CLI gates take a float-only moments path.
    patch(exact, "record_count_moments", after=after_moments)
    # Zero if record_value_cdf shares one pmf across grid points.
    patch(exact, "record_time_pmf")
    # Zero if the CLI computes the record-value bracket in one pass.
    patch(exact, "record_value_cdf")
    # Zero if the sweep and the lemma checks move into one grid helper.
    patch(discrete, "error_sweep")
    patch(discrete, "lemma_checks")
    # Zero if grid models are cached or fused into the recursion.
    patch(discrete, "discretize", after=after_discretize)
    # Zero if oracle-check enumerates through another entry point.
    patch(oracle, "exact_joint_table", after=after_joint_table)

    def uninstall():
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)

    return uninstall


def layer_metrics(tracer, outputs):
    """Per-layer numbers of one traced repetition.

    `outputs` holds the counts the benchmark read from the program's outputs
    (`cli.output_bytes`, `cli.gate_fail_positions`, `plan.file_bytes`).
    """
    spans = tracer.reduce()
    counts = tracer.counts

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    transformed = counts["distributions.values_transformed"]
    cli_spans = ("cli.simulate", "cli.exact", "cli.discrete-sweep", "cli.oracle-check")
    return {
        "plan.load_s": incl("plan.load_plan_file"),
        "plan.validate_s": incl("plan.as_validated"),
        "plan.hash_s": incl("plan.plan_hash"),
        "plan.save_s": incl("plan.save_plan_file"),
        "plan.file_bytes": outputs["plan.file_bytes"],
        "distributions.inverse_cdf_s": incl("distributions.inverse_cdf"),
        "distributions.values_transformed": transformed,
        # base: values transformed; 0 when nothing was transformed
        "distributions.transform_useful_ratio": (
            counts["simulate.values_kept"] / transformed if transformed else 0.0
        ),
        "simulate.run_s": incl("simulate.run"),
        "simulate.columns": spans.get("simulate.column", (0,))[0],
        "simulate.draw_s": self_time("simulate.column"),
        "simulate.tally_s": self_time("simulate.run"),
        "simulate.ties": counts["simulate.ties"],
        "exact.moments_s": incl("exact.record_count_moments"),
        "exact.time_pmf_s": incl("exact.record_time_pmf"),
        "exact.value_cdf_s": incl("exact.record_value_cdf"),
        "exact.denominator_bits": counts["exact.denominator_bits"],
        "discrete.lemma_checks_s": incl("discrete.lemma_checks"),
        "discrete.error_sweep_s": incl("discrete.error_sweep"),
        "discrete.atoms": counts["discrete.atoms"],
        "oracle.joint_table_s": incl("oracle.exact_joint_table"),
        "oracle.orderings": counts["oracle.orderings"],
        "cli.simulate_s": incl("cli.simulate"),
        "cli.exact_s": incl("cli.exact"),
        "cli.discrete_sweep_s": incl("cli.discrete-sweep"),
        "cli.oracle_check_s": incl("cli.oracle-check"),
        "cli.self_s": self_time(*cli_spans),
        "cli.output_bytes": outputs["cli.output_bytes"],
        "cli.gate_fail_positions": outputs["cli.gate_fail_positions"],
    }
