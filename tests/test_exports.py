"""The package namespace: what `ddaestruct` exports and where it is defined."""

from __future__ import annotations

import importlib
import pkgutil

import ddaestruct as ds
from ddaestruct import oracles

ORACLES = (
    "brute_force_arborescences",
    "classify_connection",
    "shared_occurrences",
    "tree_to_connection",
    "validate_arborescence",
    "verify_connection",
)


def package_modules():
    for info in pkgutil.iter_modules(ds.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"ddaestruct.{info.name}")


def test_all_is_sorted_unique_and_resolves():
    assert ds.__all__ == sorted(ds.__all__)
    assert len(set(ds.__all__)) == len(ds.__all__)
    for name in ds.__all__:
        assert hasattr(ds, name), name


def test_oracles_are_defined_only_in_the_oracles_module():
    for name in ORACLES:
        fn = getattr(oracles, name)
        assert fn.__module__ == "ddaestruct.oracles"
        assert name in ds.__all__ and getattr(ds, name) is fn
        for module in package_modules():
            # a module may import an oracle, but not define its own
            assert getattr(module, name, fn) is fn, f"{module.__name__}.{name}"
