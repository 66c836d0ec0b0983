"""The reducer behind ``qergo verify`` and the battery count README states."""

import io
import math
import re
from pathlib import Path

from qergo import verify

README = Path(__file__).resolve().parent.parent / "README.md"


def cases(*pairs):
    """A battery that yields the given ``(deviation, detail)`` pairs."""

    def battery():
        yield from pairs

    return battery


def test_first_case_at_the_worst_deviation_supplies_the_detail(monkeypatch):
    monkeypatch.setattr(
        verify,
        "_CHECKS",
        [
            ("fails", 0.5, cases((0.0, "zero"), (0.75, "first worst"), (0.25, "less"), (0.75, "tie"))),
            ("passes", 1.0, cases((0.75, "under tolerance"))),
        ],
    )
    fails, passes = verify.run_checks()
    assert (fails.passed, fails.worst, fails.tolerance, fails.detail) == (False, 0.75, 0.5, "first worst")
    assert (passes.passed, passes.worst, passes.tolerance, passes.detail) == (True, 0.75, 1.0, None)


def test_battery_that_yields_nothing_passes_with_worst_zero(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", [("empty", 0.0, cases())])
    [result] = verify.run_checks()
    assert (result.passed, result.worst, result.tolerance, result.detail) == (True, 0.0, 0.0, None)


def test_battery_that_raises_after_a_yield_reports_inf(monkeypatch):
    def crashing():
        yield 1e-20, "tiny"
        raise RuntimeError("boom")

    monkeypatch.setattr(
        verify, "_CHECKS", [("crash", 1e-9, crashing), ("after", 1e-9, cases((0.0, "fine")))]
    )
    crash, after = verify.run_checks()
    assert (crash.passed, crash.worst, crash.tolerance) == (False, math.inf, 0.0)
    assert crash.detail == "raised RuntimeError: boom"
    assert after.passed  # a crash does not stop the batteries after it
    out = io.StringIO()
    assert not verify.verify_suite(out)
    assert out.getvalue().splitlines() == [
        "FAIL crash                              worst=inf tol=0.0e+00",
        "     raised RuntimeError: boom",
        "ok   after                              worst=0.000e+00 tol=1.0e-09",
        "1/2 invariant batteries passed",
    ]


def test_readme_states_the_battery_count():
    [count] = re.findall(r"(\d+) invariant batteries", README.read_text(encoding="utf-8"))
    assert int(count) == len(verify.run_checks())
