"""Tests of the host-speed normalization helper (``refspeed.py``)."""

import ast

from pathlib import Path

import pytest

import refspeed

from refspeed import Normalizer, Reference, normalize


def synthetic(readings, r_nom=0.001):
    """A reference whose loop times are ``readings``, in order."""
    reference = Reference("synthetic", loop=None, r_nom=r_nom)
    readings = iter(readings)
    reference.seconds = lambda: next(readings)
    return reference


def test_normalize_scales_by_the_reference():
    # The reference ran twice as slow as nominal, so did the op.
    assert normalize(0.010, 0.002, r_nom=0.001) == pytest.approx(0.005)
    assert normalize(0.010, 0.001, r_nom=0.001) == pytest.approx(0.010)


def test_normalize_rejects_a_non_positive_reference():
    with pytest.raises(ValueError):
        normalize(0.010, 0.0, r_nom=0.001)


def test_each_op_uses_the_mean_of_its_neighbouring_references():
    clock = iter([10.0, 10.004, 20.0, 20.010])
    normalizer = Normalizer(synthetic([0.001, 0.003, 0.002]),
                            clock=lambda: next(clock))
    assert normalizer.time(lambda x: x + 1, 1) == 2
    normalizer.time(lambda: None)
    first, second = normalizer.samples
    assert first.raw_s == pytest.approx(0.004)
    assert first.ref_s == pytest.approx(0.002)
    assert first.norm_s == pytest.approx(0.002)
    # The reading after the first op is the reading before the second.
    assert second.raw_s == pytest.approx(0.010)
    assert second.ref_s == pytest.approx(0.0025)
    assert second.norm_s == pytest.approx(0.004)


def test_an_op_that_raises_records_no_sample():
    normalizer = Normalizer(synthetic([0.001, 0.001]))

    def broken():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        normalizer.time(broken)
    assert normalizer.samples == []


def test_the_reference_loop_is_fixed_work():
    reference = refspeed.REFERENCE
    assert reference.loop() == reference.loop()
    assert reference.seconds() > 0


def test_the_reference_module_imports_nothing_from_repro():
    tree = ast.parse(Path(refspeed.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported
    assert not any(name == "repro" or name.startswith("repro.")
                   for name in imported)
