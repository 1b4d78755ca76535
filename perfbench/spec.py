"""The metrics the benchmark reports, by name, unit and direction.

BENCHMARK.json lists the same metrics; ``selftest.py`` checks that the two
agree.  End-to-end metrics come from untraced passes, per-layer metrics
from a traced pass (see ``tracer.py``), except ``cli.<subcommand>.p50_s``,
which is taken from the untraced pass of the same run.
"""

from __future__ import annotations

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cmd_warm_p50_s": ("s", "lower"),
    "cmd_warm_p75_s": ("s", "lower"),
    "cmd_cold_p50_s": ("s", "lower"),
    "ok_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Traced functions: "<module>.<qualname>" -> the statistics reported for it.
# Every entry reports calls; the extra counts are filled in by the probes in
# tracer.py.
LAYERS = {
    "linalg.QMatrix.__mul__": ("calls", "self_s", "madds", "zero_frac", "int_frac"),
    "linalg.QMatrix.mul_vec": ("calls", "self_s"),
    "linalg.QMatrix.kron": ("calls", "self_s"),
    "linalg.charpoly": ("calls", "self_s"),
    "linalg.rank": ("calls", "self_s"),
    "linalg.kernel": ("calls", "self_s", "cells"),
    "linalg.Echelon.add": ("calls", "self_s", "useful_ratio"),
    "linalg.solve_columns": ("calls", "total_s"),
    "linalg.joint_invariant_decomposition": ("calls", "total_s"),
    "linalg.rational_roots": ("calls", "total_s"),
    "multipoly.MultiPoly.__mul__": ("calls", "self_s", "term_pairs"),
    "multipoly.MultiPoly.__add__": ("calls", "self_s"),
    "multipoly.MultiPoly.subs": ("calls", "self_s"),
    "multipoly.MultiPoly.diff": ("calls", "self_s"),
    "polymatrix.PolyMatrix.__mul__": ("calls", "total_s", "self_s"),
    "polymatrix.PolyMatrix.commutator": ("calls", "total_s"),
    "polymatrix.PolyMatrix.evaluate": ("calls", "total_s"),
    "limits.limit_of_span": ("calls", "total_s"),
    "lie.TypeA.__init__": ("calls", "total_s"),
    "reps.build_irrep": ("calls", "total_s", "tensor_dim"),
    "reps.load_rep": ("calls", "total_s", "hits"),
    "reps.save_rep": ("calls", "total_s", "bytes"),
    "kirillov.big_operator": ("calls", "total_s"),
    "kirillov.wei_D": ("calls", "total_s"),
    "bigalgebra.BigGenerators.__init__": ("calls", "total_s"),
    "bigalgebra.hilbert_series": ("calls", "total_s"),
    "bigalgebra.verify_presentation": ("calls", "total_s"),
    "bigalgebra.ideal_graded_dims": ("calls", "total_s"),
    "bigalgebra.freeness_and_rank_check": ("calls", "total_s"),
    "bigalgebra.derive_relations": ("calls", "total_s", "monomials", "kernel"),
    "multiplicity.multiplicity_algebra": ("calls", "total_s"),
    "multiplicity.brylinski_filtration": ("calls", "total_s"),
    "multiplicity.e_limit": ("calls", "total_s"),
    "multiplicity.lusztig_m": ("calls", "total_s"),
    "multiplicity.minuscule_quotient_check": ("calls", "total_s"),
    "spectra.emit_skeleton_points": ("calls", "total_s"),
    "spectra.principal_spectrum": ("calls", "total_s"),
    "spectra.principal_restriction": ("calls", "total_s"),
    "twining.intertwiner": ("calls", "total_s"),
    "twining.coinvariant_octet_report": ("calls", "total_s"),
}
LAYERS.update({"acceptance.criterion_%d" % i: ("total_s",) for i in range(1, 13)})

CLI_SUBCOMMANDS = (
    "rep", "ops", "hilbert", "relations", "spectrum",
    "twining", "qanalogue", "brylinski", "multalg",
)

# statistic -> (unit, better)
STAT_UNITS = {
    "calls": ("count", "lower"),
    "total_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "p50_s": ("s", "lower"),
    "overhead_s": ("s", "lower"),
    "madds": ("count", "lower"),
    "zero_frac": ("ratio", "higher"),
    "int_frac": ("ratio", "higher"),
    "cells": ("count", "lower"),
    "useful_ratio": ("ratio", "higher"),
    "term_pairs": ("count", "lower"),
    "tensor_dim": ("count", "lower"),
    "hits": ("count", "higher"),
    "bytes": ("bytes", "lower"),
    "monomials": ("count", "lower"),
    "kernel": ("count", "lower"),
}


def per_layer_names():
    names = ["%s.%s" % (key, stat) for key, stats in LAYERS.items() for stat in stats]
    names += ["cli.%s.p50_s" % sub for sub in CLI_SUBCOMMANDS]
    names.append("trace.overhead_s")
    return names


def per_layer_unit(name):
    return STAT_UNITS[name.rsplit(".", 1)[1]]
