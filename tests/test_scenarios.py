import pytest

from cremona.scenarios import list_scenarios, run_scenario

REQUIRED = ["ex1_chain", "ex3_rationality", "qfano_40245", "qfano_40057",
            "c3c3_chain", "c3cubic3_rationality", "main_parametrization",
            "fermat_smoothness"]


def test_registry_is_stable_and_complete():
    names = [n for n, _ in list_scenarios()]
    assert names == [n for n, _ in list_scenarios()]  # stable across calls
    for required in REQUIRED:
        assert required in names
    summaries = dict(list_scenarios())
    assert all(summaries[n] for n in names)


def test_unknown_scenario():
    with pytest.raises(KeyError):
        run_scenario("definitely_not_registered")


@pytest.mark.parametrize("name", REQUIRED)
def test_scenario_passes(name):
    rep = run_scenario(name)
    failures = [c for c in rep.checks if not c.passed]
    assert not failures, failures
    assert rep.checks, "scenario must assert something"
    assert all(c.provenance in ("reference", "derived", "consistency")
               for c in rep.checks)


def test_roundtrip_rate_respects_enumeration_guard(monkeypatch):
    from cremona.pipeline import RationalMap
    from cremona.scenarios import X5, _roundtrip_rate

    def generated(*args, **kwargs):
        raise AssertionError("code was generated")

    monkeypatch.setattr("cremona.verify.ENUMERATION_GUARD", 100)
    monkeypatch.setattr("cremona.verify._define", generated)
    with pytest.raises(ValueError, match="enumeration guard"):
        _roundtrip_rate(RationalMap.identity(X5), 1, 7)
