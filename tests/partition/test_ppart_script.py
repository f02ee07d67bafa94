"""The ``ppart`` meta-pass token: parsing, validation, flow integration."""

from __future__ import annotations

import dataclasses

import pytest

from repro.circuits.epfl import epfl_benchmark
from repro.partition.script import wrap_script_with_jobs
from repro.rewriting.passes import (
    PPART_USAGE,
    PassManager,
    PpartSpec,
    parse_ppart,
    parse_script,
    validate_script,
)


def test_parse_ppart_token_with_options() -> None:
    spec = parse_ppart("ppart(rw; rf, jobs=4, max_gates=250, strategy=level, merge=choice)")
    assert spec.passes == ("rw", "rf")
    assert spec.jobs == 4
    assert spec.max_gates == 250
    assert spec.strategy == "level"
    assert spec.merge == "choice"


def test_parse_ppart_defaults_and_alias_expansion() -> None:
    spec = parse_ppart("ppart(rewrite)")
    assert spec.passes == ("rw",)
    assert (spec.jobs, spec.max_gates, spec.strategy, spec.merge) == (
        1,
        400,
        "window",
        "substitute",
    )


def test_ppart_token_round_trips_through_parse_script() -> None:
    tokens = parse_script("ppart(resyn, jobs=2); map; lutmffc")
    assert tokens[0].startswith("ppart(")
    assert parse_script("; ".join(tokens)) == tokens
    assert validate_script(tokens, "aig") == "klut"


@pytest.mark.parametrize(
    "script",
    [
        "ppart",  # missing arguments
        "ppart()",  # no passes
        "ppart(jobs=2)",  # options only
        "ppart(rw, jobs=0)",  # jobs below 1
        "ppart(rw, max_gates=1)",  # region cap below 2
        "ppart(rw, window=0)",  # solver window below 1
        "ppart(rw, batch=0)",  # removed dispatch-batching knob
        "ppart(rw, window=big)",  # non-integer window
        "ppart(rw, strategy=diagonal)",  # unknown strategy
        "ppart(rw, merge=overwrite)",  # unknown merge mode
        "ppart(rw, depth=3)",  # unknown option
        "ppart(map, jobs=2)",  # not an aig-to-aig pass
        "ppart(ppart(rw), jobs=2)",  # nested ppart
        "ppart(rw, jobs=two)",  # non-integer option
        "rw(4)",  # only ppart takes arguments
        "ppart(rw",  # unbalanced parenthesis
    ],
)
def test_invalid_ppart_scripts_are_rejected(script: str) -> None:
    with pytest.raises(ValueError):
        parse_script(script)


def test_unknown_ppart_option_message_lists_the_live_options() -> None:
    with pytest.raises(ValueError) as caught:
        parse_ppart("ppart(rw, batch=0)")
    assert str(caught.value).endswith("(expected jobs, max_gates, strategy, merge, window)")


def test_parse_ppart_window_knob() -> None:
    spec = parse_ppart("ppart(rw; rf, jobs=2, window=8)")
    assert spec.window == 8
    # Round trip: canonical emits the knob only when set.
    assert ",window=8" in spec.canonical()
    assert parse_ppart(spec.canonical()) == spec


def test_ppart_canonical_without_knobs_is_unchanged() -> None:
    # The default token must stay byte-stable across releases: unset
    # window knob never appears in the canonical form.
    spec = parse_ppart("ppart(rw; rf, jobs=4)")
    assert spec.window is None
    assert spec.canonical() == "ppart(rw;rf,jobs=4,max_gates=400,strategy=window,merge=substitute)"


def test_wrap_script_emits_window_only_when_set() -> None:
    script, wrapped = wrap_script_with_jobs("rw; map", 2, window=6)
    assert wrapped
    token = parse_script(script)[0]
    assert ",window=6" in token
    plain, _ = wrap_script_with_jobs("rw; map", 2)
    assert ",window=" not in plain  # strategy=window is not the knob


def test_ppart_cannot_run_on_a_mapped_network() -> None:
    tokens = parse_script("map; ppart(rw, jobs=2)")
    with pytest.raises(ValueError, match="expects a aig network"):
        validate_script(tokens, "aig")


def test_wrap_script_with_jobs_wraps_leading_aig_passes() -> None:
    script, wrapped = wrap_script_with_jobs("rw; rf; map; lutmffc", 4)
    assert wrapped
    tokens = parse_script(script)
    assert tokens[0] == "ppart(rw;rf,jobs=4,max_gates=400,strategy=window,merge=substitute)"
    assert tokens[1:] == ["map", "lutmffc"]


def test_wrap_script_with_jobs_expands_named_scripts() -> None:
    script, wrapped = wrap_script_with_jobs("resyn2", 2)
    assert wrapped
    inner = parse_ppart(parse_script(script)[0])
    assert inner.passes == tuple(parse_script("resyn2"))


def test_wrap_script_with_jobs_respects_explicit_ppart() -> None:
    script, wrapped = wrap_script_with_jobs("ppart(rw, jobs=8); b", 2)
    assert not wrapped
    assert "jobs=8" in script


def test_wrap_script_with_jobs_skips_klut_only_scripts() -> None:
    script, wrapped = wrap_script_with_jobs("lutmffc; cleanup", 4)
    assert not wrapped
    assert parse_script(script) == ["lutmffc", "cleanup"]


def test_pass_manager_runs_ppart_and_reports_partitions() -> None:
    aig = epfl_benchmark("int2float")
    manager = PassManager("ppart(rw;rf, jobs=1, max_gates=80); b")
    optimized, flow = manager.run(aig, verify=True)
    assert flow.verified is True
    assert optimized.num_gates < aig.num_gates
    ppart_stats = flow.passes[0]
    assert ppart_stats.status == "ok"
    assert ppart_stats.partitions is not None
    assert len(ppart_stats.partitions) == int(ppart_stats.details["ppart_regions_built"])
    serialized = ppart_stats.as_dict()
    assert "partitions" in serialized
    # Non-ppart passes do not grow a partitions key.
    assert "partitions" not in flow.passes[1].as_dict()


def test_pass_manager_ppart_window_knob_runs() -> None:
    """The token-level window knob reaches partition_optimize unharmed."""
    from repro.networks.structural_hash import structural_hash

    aig = epfl_benchmark("int2float")
    default_manager = PassManager("ppart(rw, jobs=1, max_gates=60)")
    knobs_manager = PassManager("ppart(rw, jobs=1, max_gates=60, window=4)")
    base, base_flow = default_manager.run(aig.clone(), verify=True)
    tuned, tuned_flow = knobs_manager.run(aig.clone(), verify=True)
    assert base_flow.verified and tuned_flow.verified
    # The window changes solver mechanics, never the result.
    assert structural_hash(base) == structural_hash(tuned)
    details = tuned_flow.passes[0].details
    assert int(details["ppart_wire_bytes"]) > 0


def test_pass_manager_ppart_respects_injected_executor() -> None:
    from repro.partition.pool import ThreadExecutor

    aig = epfl_benchmark("ctrl")
    executor = ThreadExecutor(2)
    try:
        manager = PassManager("ppart(rw, jobs=2, max_gates=40)", partition_executor=executor)
        optimized, flow = manager.run(aig, verify=True)
    finally:
        executor.close()
    assert flow.verified is True
    assert flow.passes[0].status == "ok"


def test_ppart_usage_lists_every_accepted_option() -> None:
    valid = {"jobs": "2", "max_gates": "50", "strategy": "level", "merge": "choice", "window": "3"}
    options = [field.name for field in dataclasses.fields(PpartSpec) if field.name != "passes"]
    assert sorted(options) == sorted(valid)
    for option in options:
        spec = parse_ppart(f"ppart(rw, {option}={valid[option]})")
        assert str(getattr(spec, option)) == valid[option]
        assert f"{option}=" in PPART_USAGE
    with pytest.raises(ValueError, match="unknown ppart option"):
        parse_ppart("ppart(rw, bogus=1)")


@pytest.mark.parametrize("script", ["ppart", "rw; ppart"])
def test_ppart_without_arguments_prints_the_usage(script: str) -> None:
    with pytest.raises(ValueError) as error:
        parse_script(script)
    assert str(error.value) == PPART_USAGE
    with pytest.raises(ValueError) as error:
        parse_ppart("ppart")
    assert str(error.value) == PPART_USAGE
