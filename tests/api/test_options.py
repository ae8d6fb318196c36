"""Tests for the normalized run-options dataclass."""

import argparse

import pytest

from repro.core.options import RunOptions
from repro.core.sweeps import SweepRunner
from repro.net.topology import paper_testbed


def test_defaults():
    options = RunOptions()
    assert options.engine == "event"
    assert options.jobs == 0
    assert options.cache
    assert not options.profile


def test_validation():
    with pytest.raises(ValueError, match="unknown engine"):
        RunOptions(engine="quantum")
    # Solver backends are not serving engines.
    for engine in ("scalar", "vector", "auto"):
        with pytest.raises(ValueError, match="unknown engine"):
            RunOptions(engine=engine)
    assert RunOptions(engine="hybrid").engine == "hybrid"
    with pytest.raises(ValueError, match="jobs"):
        RunOptions(jobs=-1)


def test_runner_carries_the_options():
    testbed = paper_testbed()
    runner = RunOptions(engine="hybrid", jobs=2).runner(testbed)
    assert isinstance(runner, SweepRunner)
    assert runner.testbed is testbed
    assert runner.timings is None


def test_profile_attaches_timings():
    runner = RunOptions(profile=True).runner(paper_testbed())
    assert runner.timings is not None


def test_argparse_round_trip():
    parser = argparse.ArgumentParser()
    RunOptions.add_arguments(parser)
    args = parser.parse_args(["--no-cache", "--profile"])
    options = RunOptions.from_args(args)
    assert options == RunOptions(cache=False, profile=True)
    for removed in ("--jobs", "--engine", "--disk-cache", "--machines",
                    "--population-seed"):
        assert removed not in parser.format_help()


def test_from_args_tolerates_missing_attributes():
    options = RunOptions.from_args(argparse.Namespace())
    assert options == RunOptions()
