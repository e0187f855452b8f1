"""`tools/mutate.py --check` on hand-made records: it fails iff a survivor is not marked equivalent.

Every mutant is made to survive (the test run is stubbed to pass), so the
survivors are exactly the sample, and the record alone decides the check.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

MODULE, SEED, SHARE = "src/mcastmob/movement.py", 0, 0.1


def _sampled():
    """The descriptions of the record's sampled mutants, in sample order."""
    source = (ROOT / MODULE).read_text()
    return [mutate.mutant(source, i)[1] for i in mutate.sample(source, SEED, SHARE)]


def _check(tmp_path, monkeypatch, survivors, killed=None):
    """Run `--check` against a record listing `survivors`: True iff it passes.

    The record's score is every mutant killed unless `killed` is given, so a
    check that compared shares would fail it.
    """
    monkeypatch.setattr(mutate, "run_tests", lambda copy, tests, timeout: "passed")
    sampled = len(_sampled())
    record = dict(module=MODULE, tests=[], seed=SEED, share=SHARE,
                  killed=sampled if killed is None else killed, sampled=sampled,
                  survivors=survivors)
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    try:
        mutate.main([str(path), "--check"])
    except SystemExit as exc:
        assert "not marked equivalent" in str(exc.code)
        return False
    return True


def _mark(what, verdict="equivalent", **changes):
    return {**what, **changes, "verdict": verdict, "why": "hand-made"}


def test_the_sample_is_not_empty():
    assert len(_sampled()) >= 3


def test_every_survivor_marked_equivalent_passes_whatever_the_recorded_share(tmp_path,
                                                                            monkeypatch):
    assert _check(tmp_path, monkeypatch, [_mark(what) for what in _sampled()])


def test_a_survivor_is_matched_by_function_and_text_not_by_line(tmp_path, monkeypatch):
    survivors = [_mark(what, line=what["line"] + 100) for what in _sampled()]
    assert _check(tmp_path, monkeypatch, survivors)


@pytest.mark.parametrize("verdict", ["gap", "NEW"])
def test_a_survivor_not_marked_equivalent_fails(tmp_path, monkeypatch, verdict):
    survivors = [_mark(what) for what in _sampled()]
    survivors[1]["verdict"] = verdict
    assert not _check(tmp_path, monkeypatch, survivors)


def test_a_survivor_the_record_does_not_list_fails(tmp_path, monkeypatch):
    survivors = [_mark(what) for what in _sampled()]
    del survivors[0]
    assert not _check(tmp_path, monkeypatch, survivors)


def test_a_marked_mutant_of_other_text_does_not_cover_a_survivor(tmp_path, monkeypatch):
    survivors = [_mark(what) for what in _sampled()]
    survivors[0]["after"] += " "
    assert not _check(tmp_path, monkeypatch, survivors, killed=0)
