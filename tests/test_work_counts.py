"""The work-count gate (``tests/work_counts.py``) fails on a moved count.

The bench run itself belongs to the CI step that runs the script; here its
measurement is replaced by the committed counts, one of them moved.
"""

import json

import work_counts


def committed() -> dict:
    return json.loads(work_counts.COUNTS.read_text(encoding="utf-8"))


def test_committed_file_holds_only_counts():
    counts = committed()
    assert len(counts) == 102
    assert all(map(work_counts.is_count, counts))


def test_moved_count_fails_the_check(monkeypatch, capsys):
    old = committed()
    name = "survey-p1.invariants.invariants_p1.calls"
    new = {**old, name: old[name] + 1}
    assert work_counts.moved(old, new) == [f"{name}: {old[name]} -> {old[name] + 1}"]
    monkeypatch.setattr(work_counts, "measure", lambda: new)
    assert work_counts.main(["--check"]) == 1
    assert f"{name}: {old[name]} -> {old[name] + 1}" in capsys.readouterr().out


def test_appeared_and_vanished_counts_fail_the_check(monkeypatch):
    old = committed()
    name = next(iter(old))
    new = {k: v for k, v in old.items() if k != name}
    new["spec-queries.new.layer.calls"] = 0
    assert work_counts.moved(old, new) == [
        f"{name}: {old[name]} -> absent", "spec-queries.new.layer.calls: absent -> 0"]
    monkeypatch.setattr(work_counts, "measure", lambda: new)
    assert work_counts.main(["--check"]) == 1


def test_equal_counts_pass_the_check(monkeypatch, capsys):
    monkeypatch.setattr(work_counts, "measure", committed)
    assert work_counts.main(["--check"]) == 0
    assert capsys.readouterr().out == "102 counts equal\n"
