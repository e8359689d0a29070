"""Public outputs stay byte-identical: each CLI case of the corpus in
public_outputs.py gives its listed digest and exit code.  The demos' cases
are checked in test_demos.py."""

from public_outputs import DEMOS, case_name, cli_cases, demo_name, recorded, run_cli


def test_the_list_holds_exactly_the_corpus():
    cases = [case_name(a) for a in cli_cases()] + [demo_name(p) for p in DEMOS]
    assert len(set(cases)) == len(cases) == 128
    assert sorted(recorded()) == sorted(cases)


def test_cli_outputs_match_their_digests():
    want = recorded()
    wrong = [case_name(a) for a in cli_cases() if run_cli(a) != want[case_name(a)]]
    assert wrong == []
