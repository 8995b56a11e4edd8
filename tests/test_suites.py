"""Pinned reports of the suites that sweep admissible or small labels."""

import pytest

from superjack.ideals import char_I
from superjack.suites import (suite_duality, suite_norm, suite_regularity,
                              suite_vanishing)


@pytest.mark.parametrize("k, r, N, checked", [(1, 2, 3, 28), (2, 3, 4, 16)])
def test_vanishing_report(k, r, N, checked):
    assert suite_vanishing(k, r, N, 6) == (True, {"checked": checked,
                                                  "failures": []})


def test_regularity_reports():
    ok, rep = suite_regularity(1, 3, 2, 6, allow_noncoprime=True)
    assert not ok and rep["checked"] == 47
    assert rep["poles"] == [";2", "2;1", "0;2", ";3,1", "3;2", "1;3", ";4,2",
                            "4;3", "2;4"]
    assert suite_regularity(2, 3, 3, 5) == (True, {"checked": 84, "poles": []})


@pytest.mark.parametrize("suite", [suite_norm, suite_duality])
def test_small_label_sweep_reports(suite):
    assert suite(4) == (True, {"checked": 58, "failures": []})


def test_char_I_series():
    assert char_I(1, 2, 3, 8).series_str() == (
        "(v^2+v^3)*u^3 + (v+2v^2+v^3)*u^4 + (2v+4v^2+2v^3)*u^5 + "
        "(1+4v+6v^2+3v^3)*u^6 + (1+6v+9v^2+4v^3)*u^7 + (2+9v+12v^2+5v^3)*u^8")
