import numpy as np
import pytest

from rdgalerkin.basis import BasisSpec
from rdgalerkin.goldens import (
    GoldenEntry,
    check_goldens,
    load_goldens,
    run_problem_goldens,
)
from rdgalerkin.problems import builtin_tp1
from rdgalerkin.stepper import SolverConfig, run


class TestLoad:
    def test_entry_count_and_coverage(self):
        entries = load_goldens()
        assert len(entries) == 150
        tp1 = [e for e in entries if e.problem_id == "tp1"]
        gs = [e for e in entries if e.problem_id == "grayscott"]
        assert len(tp1) == 84           # 21 x-stations, 2 species, 2 times
        assert len(gs) == 66            # 11 x-stations, 2 species, 3 times
        assert {e.species for e in entries} == {"M", "N"}
        assert {e.t for e in tp1} == {1.0, 2.0}
        assert {e.t for e in gs} == {1.0, 10.0, 20.0}

    def test_tolerances_positive_and_sources_named(self):
        for e in load_goldens():
            assert e.tolerance > 0
            assert e.source

    def test_known_row(self):
        entries = load_goldens()
        (e,) = [
            e for e in entries
            if e.problem_id == "tp1" and e.species == "M" and e.x == 1.0 and e.t == 1.0
        ]
        assert e.value == -0.00877
        assert e.tolerance == 0.001

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            GoldenEntry("tp1", "M", 0.0, 1.0, 0.0, -1.0, "table1")
        with pytest.raises(ValueError, match="source"):
            GoldenEntry("tp1", "M", 0.0, 1.0, 0.0, 1e-3, "")


@pytest.fixture(scope="module")
def tp1_report():
    return run_problem_goldens("tp1", builtin_tp1())


class TestCheck:
    def test_tp1_tables_pass(self, tp1_report):
        assert tp1_report.passed
        assert tp1_report.worst_deviation <= 5e-3

    def test_mirror_rescue_used_only_for_discordant_prints(self, tp1_report):
        rescued = [v for v in tp1_report.verdicts if v.via_mirror]
        # exactly the two discordant published entries lean on their partner
        assert 1 <= len(rescued) <= 2
        for v in rescued:
            assert v.entry.species == "N"
            assert (v.entry.x, v.entry.t) in {(1.4, 1.0), (1.6, 2.0), (0.4, 2.0), (0.6, 1.0)}

    def test_unknown_problem_id(self):
        with pytest.raises(ValueError, match="no golden entries"):
            run_problem_goldens("nope", builtin_tp1())

    def test_genuine_failure_is_reported(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        trajectory = run(problem, basis, SolverConfig(dt=0.1, t_end=1.0))
        # deliberately wrong value with no mirror partner to rescue it
        bogus = GoldenEntry("tp1", "M", 1.0, 1.0, 0.5, 1e-3, "made-up")
        report = check_goldens([bogus], trajectory, problem, basis, 0.1)
        assert not report.passed
        assert len(report.failures) == 1
        assert report.failures[0].deviation > 0.4

    def test_mirror_mechanism(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        trajectory = run(problem, basis, SolverConfig(dt=0.1, t_end=1.0))
        good = GoldenEntry("tp1", "M", 0.8, 1.0, -0.00803, 1e-3, "table1")
        # partner at the mirror station with a corrupted print: the computed
        # field matches the good partner, so the pair passes via_mirror
        typo = GoldenEntry("tp1", "M", 1.2, 1.0, 0.00803, 1e-3, "corrupted")
        report = check_goldens([good, typo], trajectory, problem, basis, 0.1)
        assert report.passed
        by_x = {v.entry.x: v for v in report.verdicts}
        assert not by_x[0.8].via_mirror
        assert by_x[1.2].via_mirror

    def test_off_trajectory_time_rejected(self):
        problem = builtin_tp1()
        basis = BasisSpec(problem.lower, problem.upper, 6)
        trajectory = run(problem, basis, SolverConfig(dt=0.1, t_end=1.0))
        entry = GoldenEntry("tp1", "M", 1.0, 7.0, 0.0, 1e-3, "table1")
        with pytest.raises(ValueError, match="not on the trajectory grid"):
            check_goldens([entry], trajectory, problem, basis, 0.1)
