"""The traced functions, the statistics reported for each, and the
end-to-end metric and workload each one is expected to move.

Per-layer metric names have the form ``<module>.<function>.<stat>``:

- ``calls``: wrapped calls in one pass over the job list;
- ``self_s``: span time minus the time of wrapped child spans, summed;
- ``distinct_ratio``: calls with distinct (model, args) within one job,
  divided by calls; below 1 means repeated work;
- ``entries`` / ``tuples_computed``: work size computed from the call's
  arguments (JPD entries, enumerated outcome tuples), not counted inside
  the program.
"""

from __future__ import annotations

from dataclasses import dataclass

STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "distinct_ratio": "ratio",
    "entries": "count",
    "tuples_computed": "count",
}
STAT_BETTER = {
    "calls": "lower",
    "self_s": "lower",
    "distinct_ratio": "higher",
    "entries": "lower",
    "tuples_computed": "lower",
}


@dataclass(frozen=True)
class Layer:
    module: str
    function: str       # "name" or "Class.method"
    stats: tuple
    moves: str          # end-to-end metric and workload it should move

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


LAYERS = (
    Layer("cli", "parse_args", ("self_s",), "job_p50_ms on jpd-symmetrize"),
    Layer("cli", "execute", ("self_s",), "job_p50_ms on jpd-symmetrize"),
    Layer("boxes", "validate_pairbox", ("calls", "self_s"), "job_p50_ms and setup_s, all workloads"),
    Layer("boxes", "PairBox.from_json", ("self_s",), "job_p50_ms and setup_s, all workloads"),
    Layer("ensemble", "check_no_signalling", ("calls", "self_s", "tuples_computed"),
          "wall_s and job_p90_ms on verify-oracle"),
    Layer("ensemble", "marginal", ("calls", "self_s", "distinct_ratio"),
          "job_p90_ms on moments-sweep; wall_s on verify-oracle"),
    Layer("ensemble", "marginal_correlator", ("calls", "self_s"),
          "job_p90_ms on moments-sweep; wall_s on verify-oracle"),
    Layer("ensemble", "explicit_joint_from_json", ("self_s",), "job_p50_ms on verify-oracle"),
    Layer("symmetry", "jpd_general", ("calls", "self_s", "distinct_ratio", "entries"),
          "wall_s and job_p90_ms on jpd-symmetrize"),
    Layer("symmetry", "effective_quad", ("calls", "self_s", "distinct_ratio"),
          "job_p50_ms on verify-oracle and moments-sweep"),
    Layer("symmetry", "effective_pair", ("calls", "self_s", "distinct_ratio"),
          "job_p50_ms on verify-oracle and moments-sweep"),
    Layer("symmetry", "effective_correlator", ("calls", "self_s"), "none assigned"),
    Layer("symmetry", "jpd_marginal", ("self_s",), "none assigned"),
    Layer("symmetry", "SymmetricJPD.to_json", ("self_s",), "none assigned"),
    Layer("macro", "macro_joint_second_moment", ("calls", "self_s"), "job_p90_ms on moments-sweep"),
    Layer("macro", "macro_correlation", ("self_s",), "job_p90_ms on moments-sweep"),
    Layer("macro", "macro_local_second_moment", ("self_s",), "job_p90_ms on moments-sweep"),
    Layer("macro", "macro_distribution_bruteforce", ("calls", "self_s", "tuples_computed"),
          "wall_s on verify-oracle"),
    Layer("macro", "macro_moment_general", ("calls", "self_s"), "none assigned"),
    Layer("macro", "moment_report", ("self_s",), "none assigned"),
    Layer("macro", "gisin_matrix", ("self_s",), "none assigned"),
    Layer("macro", "rohrlich_conditional_variance", ("self_s",), "none assigned"),
)

#: Traced wall_s minus untraced wall_s, from the same run.
OVERHEAD_METRIC = "trace.overhead_s"


def per_layer_metrics() -> list:
    """[(name, unit, better)] in report order, ending with the trace overhead."""
    metrics = [(f"{layer.name}.{stat}", STAT_UNITS[stat], STAT_BETTER[stat])
               for layer in LAYERS for stat in layer.stats]
    metrics.append((OVERHEAD_METRIC, "s", "lower"))
    return metrics
