"""The package's top-level surface: documented entry points, their types, exceptions."""

import laplaceqm

# README Library section and the types it takes or returns
ENTRY_POINTS = [
    "ComparisonReport",
    "ContourConfig",
    "Kind",
    "Method",
    "ProblemSpec",
    "QuantumNumbers",
    "WavefunctionGrid",
    "bound_energy",
    "cross_method_report",
    "sample_wavefunction",
    "spectrum_table",
]

# exceptions raised and warnings issued
EXCEPTIONS = [
    "BranchPointEvaluation",
    "DegenerateLambda",
    "DomainError",
    "InvalidQuantumNumbers",
    "MethodRegimeMismatch",
    "NonIntegerOrder",
    "NotBoundProblem",
    "PrecisionLoss",
    "RegimeMismatch",
]


def test_all_is_the_documented_surface():
    assert sorted(laplaceqm.__all__) == sorted(ENTRY_POINTS + EXCEPTIONS)
    assert len(set(laplaceqm.__all__)) == len(laplaceqm.__all__)


def test_every_exported_name_resolves():
    for name in laplaceqm.__all__:
        assert getattr(laplaceqm, name) is not None
    for name in EXCEPTIONS:
        assert issubclass(getattr(laplaceqm, name), Exception)
