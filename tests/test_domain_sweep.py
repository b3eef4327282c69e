"""tools/domain_sweep.py classes an ``exponents`` command by its exit code,
its larger ``deviation`` and its warnings, and groups the draws whose class
changed between two trees by transition; the sweep itself is not run here."""

import importlib.util
from pathlib import Path

import pytest


def _domain_sweep():
    """tools/domain_sweep.py, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "tools" / "domain_sweep.py"
    spec = importlib.util.spec_from_file_location("domain_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, expected", [
    # a ratio cut by the phase, refused by its error estimate
    ("--model ordinary --g 15.7492 --window 1.43648:2.79532 --eta 0.617259", "refused"),
    # a cut ratio that its estimate lets through
    ("--model ordinary --g 37.6496 --window 429.789:8801.59 --eta 0.176428", "within 1%"),
    # a window below the singular scale 8.9
    ("--model deformed-zero-energy --g 0.0968602 --window 1.62298:3.18227 --theta 0.0123346 "
     "--theta-prime 0.000156675", "warned"),
    # deviation 3.11 on the uncut ratio, refused by its estimate
    ("--model deformed-zero-energy --g 20.9073 --window 5.74188:6.84344 --theta 0.0135097 "
     "--theta-prime 0.068539", "refused"),
    # deviation 0.022 with no warning, within its estimate: the worst
    # silent row of seed 7
    ("--model deformed-first-order --g 0.0105586 --window 6.36459:11.5531 --eta 0.514139 "
     "--theta 0.0047316 --theta-prime 0.0209601", "silent"),
])
def test_classifier(argv, expected):
    name, deviation = _domain_sweep().classify(["exponents", *argv.split()])
    assert name == expected
    assert (deviation <= 0.01) is (expected == "within 1%")


def test_draws_are_seeded_and_stay_in_the_domain():
    sweep = _domain_sweep()
    drawn = sweep.draws(7, 300)
    assert drawn == sweep.draws(7, 300) != sweep.draws(8, 300)
    assert {argv[2] for argv in drawn} == set(sweep.MODELS)
    for argv in drawn:
        lo, hi = map(float, argv[argv.index("--window") + 1].split(":"))
        assert 1.0 < lo < hi and hi / lo > 1.0201
        assert 0.01 <= float(argv[argv.index("--g") + 1]) <= 45.0
        assert ("--eta" in argv) is (argv[2] != "deformed-zero-energy")
        assert ("--theta" in argv) is (argv[2] != "ordinary")


def test_transitions_group_the_changed_draws_in_class_order():
    old = ["within 1%", "refused", "refused", "silent", "warned", "refused", "raised"]
    new = ["within 1%", "silent", "refused", "silent", "refused", "silent", "within 1%"]
    changed = _domain_sweep().transitions(old, new)
    assert changed == {("warned", "refused"): [4], ("refused", "silent"): [1, 5],
                       ("raised", "within 1%"): [6]}
    assert list(changed) == [("warned", "refused"), ("refused", "silent"),
                             ("raised", "within 1%")]
    assert _domain_sweep().transitions(old, old) == {}
