"""The package's public names: ``permrad.__all__`` and what it re-exports."""

import inspect

import pytest

import permrad

# retired names, each replaced by one entry point: the per-channel bounds by
# block_error_bounds and pairwise_errors, ChannelParams by check_channel, and
# the detectors' objective and statistic helpers by test-side oracles
RETIRED = (
    "ChannelParams",
    "union_bound_awgn",
    "union_bound_rician",
    "union_bound_rayleigh",
    "nn_awgn",
    "nn_rician",
    "nn_rayleigh",
    "pairwise_rician",
    "assignment_score",
    "statistic_matrices",
)


def test_all_is_exactly_the_public_names_the_package_imports():
    defined = {
        name for name, value in vars(permrad).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(permrad.__all__) == len(set(permrad.__all__))
    assert set(permrad.__all__) == defined


def test_every_exported_name_imports():
    namespace = {}
    exec("from permrad import *", namespace)
    for name in permrad.__all__:
        assert namespace[name] is getattr(permrad, name)


@pytest.mark.parametrize("name", RETIRED)
def test_retired_names_are_gone(name):
    assert name not in permrad.__all__
    assert not hasattr(permrad, name)
    submodules = [value for value in vars(permrad).values() if inspect.ismodule(value)]
    assert submodules and not any(hasattr(module, name) for module in submodules)
