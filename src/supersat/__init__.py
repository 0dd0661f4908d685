"""Chain counting, symmetric chain decompositions, and supersaturation
bounds in the subset lattice, with brute-force oracles at small n.

Public names resolve on first access (PEP 562), so `import supersat` loads
no submodule and each name costs only the import of its home module."""

from importlib import import_module

__version__ = "0.1.0"

# The one chain-count kernel is pure Python (see supersat.counting).
BACKEND = "python"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(
        (
            "Family",
            "FamilyFormatError",
            "LevelInterval",
            "binom",
            "build_b_family",
            "middle_levels",
            "parse_family",
            "read_family",
            "serialize_family",
            "sigma",
        ),
        "core",
    ),
    **dict.fromkeys(
        (
            "Chain",
            "Decomposition",
            "Permutation",
            "ScdValidation",
            "bracketing_chain_of",
            "chain_through",
            "permute_decomposition",
            "scd_inductive",
            "validate_scd",
        ),
        "scd",
    ),
    **dict.fromkeys(
        (
            "count_chains_with_max_endpoint",
            "count_chains_with_min_endpoint",
            "count_included_chains",
            "count_k_chains",
            "count_k_chains_naive",
        ),
        "counting",
    ),
    **dict.fromkeys(
        (
            "BoundReport",
            "MinMaxYZReport",
            "binomial_identity_holds",
            "bound_report",
            "build_extremal_family",
            "min_max_yz",
            "min_max_yz_minimizer",
            "min_max_yz_verification",
            "n_permutations_enumerate",
            "n_permutations_factorial",
            "n_permutations_ratio",
            "supersat_bound",
            "tight_x_max",
            "yz",
        ),
        "bounds",
    ),
    **dict.fromkeys(
        (
            "KleitmanRow",
            "OracleResult",
            "centered_family",
            "kleitman_report",
            "max_free_family",
            "min_chain_count_exact",
            "min_chain_count_heuristic",
        ),
        "oracle",
    ),
}

__all__ = sorted(["BACKEND", *_HOME])


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
