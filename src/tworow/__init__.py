"""Exact linear algebra behind two-row graphs: 1-block decomposition,
Hamiltonicity of row graphs, cohomology pairings of right-angled Artin
groups, and graph realization.

Public names resolve on first use (PEP 562): `import tworow` loads no
submodule, and each name's home module is imported when the name is first
looked up, then bound here so that later lookups are plain attribute reads.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# home module of each public name
_EXPORTS = {
    "errors": (
        "AssertionFailure", "DegenerateMatrix", "DimensionMismatch", "DivisionByZero",
        "FieldMismatch", "IncompleteTrack", "IndexOutOfRange", "NotSquare",
        "ParseError", "SingularBasis", "SizeBound", "SizeMismatch", "TwoRowError",
        "ZeroEntryInString",
    ),
    "fields": (
        "FieldKind", "FieldSpec", "GF2", "GF3", "GF5", "QQ", "Scalar", "parse_field",
    ),
    "matrices": (
        "ExactMatrix", "RowPermutation", "canonical_json", "consecutive_minor",
        "determinant", "matrix_from_csv_text", "permute_rows", "rank", "wrap_minor",
    ),
    "rowgraph": (
        "SimplicialGraph", "graph_from_text", "is_cyclically_square_traceable",
        "is_square_traceable", "null_connected", "opp_graph", "two_row_graph",
    ),
    "hamilton": ("PathWitness", "graph_hamiltonicity", "traceable_ordering"),
    "blocks": (
        "BlockPartition", "OneBlock", "OneTrack", "TrackMember", "TrackString",
        "block_partition", "complete_tracks", "det_by_tracks", "find_one_blocks",
        "string_of", "track_of_string", "track_sum",
    ),
    "raag": (
        "BasisMatrix", "PairingTriple", "basis_hamiltonian_witness",
        "basis_support_graph", "cup_pairing", "pair_vectors",
    ),
    "realize": (
        "RealizationResult", "expected_columns", "realize", "verify_realization",
    ),
    "harness": (
        "ExperimentConfig", "ExperimentMode", "ExperimentReport", "run_experiment",
        "sample_gl", "trial_rng",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())


class _Package(type(sys)):
    """The package module.  Importing a submodule binds it as a package
    attribute; where the submodule shares its name with a public function
    (`realize`), the function is bound instead, whichever is imported first."""

    def __setattr__(self, name: str, value) -> None:
        if _HOME.get(name) == name and isinstance(value, type(sys)):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
