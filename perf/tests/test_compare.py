"""compare.py verdicts on synthetic records."""

import json

from perf import compare


def record(median, runs=None, spread=0.02, better="higher", bound=0.1,
           failed_share=0.0):
    runs = runs or [median] * 3
    return {"workloads": {"w": {
        "end_to_end": {"m": {"median": median, "spread": spread, "runs": runs,
                             "unit": "1/s", "better": better, "bound": bound}},
        "failed_share": failed_share,
    }}}


def verdicts(a, b):
    return {row[1]: row[-1] for row in compare.compare(a, b)}


def test_same_better_worse_follow_the_direction():
    assert verdicts(record(100), record(105))["m"] == "same"
    assert verdicts(record(100), record(120))["m"] == "better"
    assert verdicts(record(100), record(80))["m"] == "worse"
    lower = dict(better="lower")
    assert verdicts(record(100, **lower), record(120, **lower))["m"] == "worse"
    assert verdicts(record(100, **lower), record(80, **lower))["m"] == "better"


def test_wide_spread_is_unresolved_unless_every_run_wins():
    noisy = record(100, runs=[80, 100, 120], spread=0.4)
    assert verdicts(noisy, record(85))["m"] == "unresolved"
    assert verdicts(noisy, record(130, runs=[125, 130, 135]))["m"] == "better"


def test_failed_share_rise_is_worse_and_sets_the_exit_code(tmp_path, capsys):
    a, b = record(100), record(100, failed_share=0.01)
    assert verdicts(a, b)["failed_share"] == "worse"
    paths = []
    for name, rec in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(rec))
        paths.append(str(path))
    assert compare.main(paths) == 1
    assert compare.main([paths[0], paths[0]]) == 0
    assert "verdict" in capsys.readouterr().out
