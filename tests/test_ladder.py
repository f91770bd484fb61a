"""``tests/ladder.py --against``'s exit status, on a ladder of no fixtures."""

import json

import pytest

import ladder


@pytest.mark.parametrize("saved, status", [({}, 0), ({"s1/x.json": "0"}, 3)],
                         ids=["same", "missing"])
def test_against_exits_3_on_differences_and_0_on_none(tmp_path, monkeypatch,
                                                       capsys, saved, status):
    monkeypatch.setattr(ladder, "FIXTURES", {})
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(saved))
    assert ladder.main_ladder(["--against", str(path)]) == status
    assert f"{len(saved)} differences from" in capsys.readouterr().out
