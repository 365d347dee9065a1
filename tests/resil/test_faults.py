"""The fault DSL: parsing, deterministic occurrence counting, file
corruption helpers, and pool-job wrapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.resil import faults
from repro.resil.faults import FaultRule, FaultSchedule
from repro.resil.retry import InjectedFault


_NUMBERS = st.integers(-2, 12).map(str)
_OCCURRENCES = st.one_of(
    st.just("*"),
    _NUMBERS,
    st.lists(_NUMBERS, min_size=1, max_size=4).map(",".join),
    st.tuples(_NUMBERS, _NUMBERS).map("-".join),
    st.text(max_size=6),
)
_PARAMS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-1", "1e400", "0", ""]),
    st.text(max_size=6),
)


@st.composite
def _fault_specs(draw):
    """``;``-joined rules over real and junk sites, with occurrence
    lists, ranges and params drawn around the edges of the grammar."""
    rules = []
    for _ in range(draw(st.integers(0, 3))):
        site = draw(
            st.one_of(st.sampled_from(faults.SITES), st.text(max_size=8))
        )
        rule = f"{site}:{draw(_OCCURRENCES)}"
        if draw(st.booleans()):
            rule += ":" + draw(_PARAMS)
        rules.append(rule)
    return draw(st.sampled_from([";", "; "])).join(rules)


def _parses(spec):
    try:
        FaultSchedule.parse(spec)
    except ValueError:
        return False
    return True


class TestParsing:
    def test_single_occurrence(self):
        schedule = FaultSchedule.parse("task_fail:3")
        rule = schedule.rules["task_fail"]
        assert not rule.fires_at(2)
        assert rule.fires_at(3)
        assert not rule.fires_at(4)
        assert rule.bounded

    def test_comma_list_and_range(self):
        listed = FaultSchedule.parse("task_fail:1,4").rules["task_fail"]
        assert [listed.fires_at(n) for n in (1, 2, 3, 4)] == [
            True, False, False, True,
        ]
        ranged = FaultSchedule.parse("task_delay:2-4").rules["task_delay"]
        assert [ranged.fires_at(n) for n in (1, 2, 3, 4, 5)] == [
            False, True, True, True, False,
        ]

    def test_star_is_unbounded(self):
        rule = FaultSchedule.parse("stage_fail:*").rules["stage_fail"]
        assert rule.fires_at(1) and rule.fires_at(10 ** 6)
        assert not rule.bounded

    def test_param_and_multiple_rules(self):
        schedule = FaultSchedule.parse(
            "task_delay:1:0.25; cache_corrupt:2"
        )
        assert schedule.rules["task_delay"].param == 0.25
        assert schedule.rules["cache_corrupt"].param is None
        assert len(schedule.rules) == 2

    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSchedule.parse("meteor_strike:1")

    def test_rejects_malformed_and_duplicate_rules(self):
        with pytest.raises(ValueError, match="bad fault rule"):
            FaultSchedule.parse("task_fail")
        with pytest.raises(ValueError, match="duplicate"):
            FaultSchedule.parse("task_fail:1;task_fail:2")
        with pytest.raises(ValueError, match="no occurrences"):
            FaultRule("task_fail", "", None)

    @pytest.mark.parametrize("spec, message", [
        ("task_fail:0", "names pass 0"),
        ("task_fail:2,0", "names pass 0"),
        ("task_fail:0-3", "names pass 0"),
        ("task_fail:5-2", "reversed range"),
        ("task_delay:1:nan", "has param nan"),
        ("task_delay:1:-1", "has param -1"),
        ("task_delay:1:inf", "has param inf"),
        ("task_delay:1:1e10", "has param 1"),
        ("task_fail:x", "'task_fail' has occurrences 'x'"),
        ("task_fail:-1-3", "'task_fail' has occurrences '-1-3'"),
        ("task_fail:1,y", "'task_fail' has occurrences '1,y'"),
        ("task_delay:1:abc", "'task_delay' has param 'abc'"),
    ])
    def test_rejects_rules_that_cannot_fire_or_sleep(self, spec, message):
        with pytest.raises(ValueError, match=message):
            FaultSchedule.parse(spec)

    @settings(max_examples=300, deadline=None)
    @given(spec=st.one_of(st.text(max_size=30), _fault_specs()))
    def test_parse_yields_firing_rules_or_value_error(self, spec):
        try:
            schedule = FaultSchedule.parse(spec)
        except ValueError as exc:
            # The error names the first rule whose prefix of the spec
            # does not parse.
            chunks = [c.strip() for c in spec.split(";") if c.strip()]
            offending = next(
                chunk for i, chunk in enumerate(chunks)
                if not _parses(";".join(chunks[: i + 1]))
            )
            assert repr(offending) in str(exc)
            return
        for rule in schedule.rules.values():
            first = 1 if rule.all else min(rule.chosen or (rule.low,))
            assert first >= 1 and rule.fires_at(first)
            assert rule.param is None or (
                0.0 <= rule.param <= faults.MAX_PARAM
            )


class TestCLI:
    @pytest.mark.parametrize("spec", [
        "worker_kill:1",
        "task_fail:0",
        "task_fail:5-2",
        "task_delay:1:nan",
        "task_delay:1:-1",
        "task_delay:1:inf",
        "task_fail:x",
    ])
    def test_bad_rule_is_a_one_line_exit(self, spec, fault_spec):
        # fault_spec undoes what main() installs, should a spec ever parse.
        with pytest.raises(SystemExit) as exc:
            main(["peaks", "--dataset", "amazon", "--faults", spec])
        message = str(exc.value.code)
        assert message.startswith(f"--faults: bad fault rule {spec!r}: ")
        assert "\n" not in message


class TestCounting:
    def test_passes_counted_per_site(self):
        schedule = FaultSchedule.parse("task_fail:2")
        assert schedule.should_fire("task_fail") is None      # pass 1
        assert schedule.should_fire("task_fail") is not None  # pass 2
        assert schedule.should_fire("task_fail") is None      # pass 3
        # A site with no rule is not even counted.
        assert schedule.should_fire("stage_fail") is None
        snap = schedule.snapshot()
        assert snap["passes"] == {"task_fail": 3}
        assert snap["fired"] == {"task_fail": 1}
        assert snap["spec"] == "task_fail:2"

    def test_same_schedule_same_workload_fires_identically(self):
        spec = "task_fail:2,5;task_delay:3"
        runs = []
        for _ in range(2):
            schedule = FaultSchedule.parse(spec)
            runs.append([
                (schedule.should_fire("task_fail") is not None,
                 schedule.should_fire("task_delay") is not None)
                for _ in range(6)
            ])
        assert runs[0] == runs[1]
        assert [fired for fired, _ in runs[0]] == [
            False, True, False, False, True, False,
        ]


class TestModuleGlobals:
    def test_configure_and_maybe_fail(self, fault_spec):
        fault_spec("stage_fail:1")
        assert faults.active()
        with pytest.raises(InjectedFault) as excinfo:
            faults.maybe_fail("stage_fail", "stage.tree")
        assert excinfo.value.site == "stage_fail"
        faults.maybe_fail("stage_fail")  # pass 2: no fire
        assert faults.snapshot()["fired"] == {"stage_fail": 1}

    def test_disabled_is_free(self, fault_spec):
        faults.configure(None)
        assert not faults.active()
        assert faults.should_fire("task_fail") is None
        assert faults.snapshot() is None
        faults.maybe_fail("task_fail")  # no-op

    def test_schedule_parsed_from_env(self, fault_spec, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "task_fail:1")
        monkeypatch.setattr(faults, "_LOADED", False)
        monkeypatch.setattr(faults, "_ACTIVE", None)
        assert faults.active()
        assert faults.schedule().spec == "task_fail:1"


class TestWrapJob:
    def test_identity_without_schedule(self, fault_spec):
        faults.configure(None)
        fn, args = faults.wrap_job(len, ("abc",))
        assert fn is len and args == ("abc",)

    def test_wrapped_job_raises_then_heals(self, fault_spec):
        fault_spec("task_fail:1")
        fn, args = faults.wrap_job(len, ("abc",))
        assert fn is faults._faulted_job
        with pytest.raises(InjectedFault):
            fn(*args)
        # The next submission is clean (decision is made at wrap time).
        fn, args = faults.wrap_job(len, ("abc",))
        assert fn is len
        assert fn(*args) == 3


class TestCorruptFile:
    def test_truncates_back_half(self, tmp_path):
        victim = tmp_path / "payload.bin"
        victim.write_bytes(b"\x01\x02\x03\x04")
        assert faults.corrupt_file(victim)
        assert victim.read_bytes() == b"\x01\x02"

    def test_missing_or_empty_file(self, tmp_path):
        assert not faults.corrupt_file(tmp_path / "ghost.bin")
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert not faults.corrupt_file(empty)
