"""Output-check logic: which outcomes count toward error_frac."""

import checks
from child import _known_defect


def config(algorithm="dle", family="hexagon", faults=""):
    data = {"algorithm": algorithm, "family": family, "size": 2, "seed": 0,
            "scheduler": "random", "engine": "sweep"}
    if faults:
        data["faults"] = faults
    return data


def record(succeeded=True, d=4, d_a=4, d_g=4, n=19, holes=0):
    return {"algorithm": "dle", "family": "hexagon", "size": 2, "seed": 0,
            "rounds": 7, "succeeded": succeeded,
            "metrics": {"n": n, "n_A": n, "D": d, "D_A": d_a, "D_G": d_g,
                        "L_out": 12, "L_max": 12, "holes": holes},
            "details": {}}


def facts(_family, _size, _seed):
    return (19, 0)


def test_sound_record_passes():
    assert checks.record_violations(config(), record(), 19, 0) == []


def test_unordered_metrics_fail():
    problems = checks.record_violations(config(), record(d=4, d_a=5), 19, 0)
    assert problems and "D_G <= D_A <= D" in problems[0]
    assert checks.record_violations(config(), record(d_g=5, d_a=4), 19, 0)


def test_n_must_equal_shape_size():
    assert checks.record_violations(config(), record(n=18), 19, 0)


def test_fault_free_dle_and_pipeline_must_succeed():
    assert checks.record_violations(config("dle"), record(succeeded=False), 19, 0)
    assert checks.record_violations(config("obd+dle+collect"), record(succeeded=False),
                                    19, 0)
    # Under a fault plan, an unsuccessful run is an outcome, not an error.
    assert checks.record_violations(config("dle", faults="crash:rate=0.1"),
                                    record(succeeded=False), 19, 0) == []
    # The randomized baseline carries no success guarantee here.
    assert checks.record_violations(config("randomized"), record(succeeded=False),
                                    19, 0) == []


def test_erosion_must_succeed_only_without_holes():
    assert checks.record_violations(config("erosion"), record(succeeded=False), 19, 0)
    assert checks.record_violations(config("erosion", "holey"), record(succeeded=False),
                                    19, 2) == []


def test_reference_mismatch_fails():
    good = record()
    assert checks.record_violations(config(), good, 19, 0,
                                    checks.record_hash(good)) == []
    changed = record()
    changed["rounds"] = 8
    problems = checks.record_violations(config(), changed, 19, 0,
                                        checks.record_hash(good))
    assert problems == ["record differs from the committed reference"]


def test_checker_counts_broken_invariants_and_raises_as_failed():
    checker = checks.Checker(facts=facts)
    assert checker.check(config(), record()) == []
    assert checker.check(config(), record(d_a=9)) != []
    assert checker.check(config(), None, "Traceback\nKeyError: 'status'\n") == [
        "raised: KeyError: 'status'"]
    assert (checker.attempted, checker.failed) == (3, 2)


def test_checker_uses_reference_by_config_key():
    good = record()
    reference = {checks.config_key(config()): checks.record_hash(good)}
    checker = checks.Checker(reference, facts=facts)
    assert checker.check(config(), good) == []
    assert checker.check(config(), record(d=5)) != []
    # Configs absent from the reference are checked by invariants only.
    assert checker.check(config("erosion"), record()) == []
    assert (checker.attempted, checker.failed) == (3, 1)


def test_known_defect_is_a_shape_plan_raising_a_defect_error():
    error = "Traceback (most recent call last):\n  ...\nKeyError: 'status'\n"
    assert _known_defect(config(faults="shape:rate=1;seed=3"), error)
    claim = ("Traceback (most recent call last):\n  ...\n"
             "repro.core.dle.LeaderElectionError: Claim 10 violated: ...\n")
    assert _known_defect(config(faults="shape:rate=1;seed=3"), claim)
    assert not _known_defect(config(), claim)
    assert not _known_defect(config(faults="crash:rate=0.1"), error)
    assert not _known_defect(config(faults="shape:rate=1"), "ValueError: boom")
    assert not _known_defect(config(faults="shape:rate=1"), None)
