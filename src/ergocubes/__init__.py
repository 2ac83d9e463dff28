"""Exact computations for finite systems with two commuting measure-preserving
maps: self-joinings, a four-fold seminorm, magic extensions, quadruple spaces,
window averages with closed-form compression, and analytic torus oracles.

`import ergocubes` loads no submodule: each name below, and each submodule
(`ergocubes.finite`), is looked up on first access (PEP 562), so a process
compiles only the layers it uses.
"""

from importlib import import_module

_EXPORTS = {
    name: module
    for module, names in {
        "core": (
            "DimensionError", "Observable", "Partition", "PreconditionError", "SparseMeasure", "as_fraction",
            "common_refinement", "format_fraction", "integrate", "marginal", "parse_rational",
        ),
        "finite": (
            "ErgodicComponent", "FiniteMPS", "FreenessResult", "GroupElement", "InvalidSystemError", "S_GEN",
            "SystemFormatError", "T_GEN", "diagonal_grid", "ergodic_decomposition", "invariant_partition",
            "is_ergodic", "is_free", "partition_s", "partition_t", "partition_st", "product_grid", "product_system",
            "random_ergodic_system", "random_product_system", "random_system", "system_from_dict",
            "system_to_dict", "translation_system", "z4_diagonal",
        ),
        "joinings": (
            "ExtensionConstructionError", "HostMeasure", "MagicExtension", "MagicReport", "SeminormValue",
            "cond_exp", "host_integral", "host_measure", "host_seminorm", "invariant_w", "is_magic",
            "magic_extension", "measurability_check", "rel_indep_square", "seminorm_kernel_basis",
        ),
        "cubes": (
            "ActionSpace", "ProductCubeReport", "cube_space", "empirical_unique_ergodicity",
            "product_cube_identification", "two_sided_cube", "uniform_cube_deviation",
        ),
        "averaging": (
            "BoundCheck", "ConvergenceReport", "ReportRow", "birkhoff_average", "box_hits", "check_bound_average",
            "check_telescoping", "cubic_average", "decompose_and_converge", "fourfold_average",
            "fourfold_average_naive", "run_average", "schedule_report", "window_counts", "windowed_sn",
            "windowed_sn_naive",
        ),
        "torus": (
            "TorusSystem", "TrigPoly", "sqrt23_system", "sqrt_fraction", "torus_average", "torus_average_naive",
            "torus_report",
        ),
        "verify": ("SuiteResult", "SweepResult", "exhaustive_bound_sweep", "find_bound_constant", "run_suites"),
    }.items()
    for name in names
}

_SUBMODULES = frozenset(_EXPORTS.values()) | {"linalg"}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached here: the name stays whatever its module binds now.
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
