from fractions import Fraction

import pytest

import tracing
from cubechar import certreal, characters, obstruction, perm
from cubechar.certreal import Enclosure


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # a: 0..10 holds b: 2..5 (which holds c: 3..4) and d: 6..8
    tracer = tracing.Tracer(clock=ScriptedClock([0, 2, 3, 4, 5, 6, 8, 10]))
    for name in ("a", "b", "c"):
        tracer.enter(name)
    tracer.exit()  # c
    tracer.exit()  # b
    tracer.enter("d")
    tracer.exit()
    tracer.exit()  # a
    assert dict(tracer.total_s) == {"a": 10, "b": 3, "c": 1, "d": 2}
    assert dict(tracer.self_s) == {"a": 5, "b": 2, "c": 1, "d": 2}
    names = [tracer.names[i] for i in tracer.span_names]
    parents = dict(zip(tracer.span_ids, tracer.span_parents))
    ids = dict(zip(names, tracer.span_ids))
    assert parents[ids["c"]] == ids["b"]
    assert parents[ids["b"]] == parents[ids["d"]] == ids["a"]
    assert parents[ids["a"]] == -1


def test_repeated_spans_accumulate_per_name():
    tracer = tracing.Tracer(clock=ScriptedClock([0, 1, 4, 4, 4, 5, 9, 9]))
    for _ in range(2):
        tracer.enter("outer")
        tracer.enter("inner")
        tracer.exit()
        tracer.exit()
    assert tracer.calls == {"outer": 2, "inner": 2}
    assert tracer.self_s["outer"] == 2  # (4 - 0 - 3) + (9 - 4 - 4)
    assert tracer.self_s["inner"] == 7


@pytest.fixture
def installed():
    tracer = tracing.Tracer()
    uninstall, missing = tracing.install(tracer)
    yield tracer, missing
    uninstall()


def test_certify_sign_wrapper_records_every_precision(installed):
    tracer, missing = installed
    assert missing == []

    def evaluate(prec):
        if prec < 256:
            return Enclosure(Fraction(-1), Fraction(1), prec)
        return Enclosure(Fraction(1), Fraction(2), prec)

    enc, sign = certreal.certify_sign(evaluate, start_prec=64)
    assert (enc.prec, sign) == (256, "positive")
    assert tracer.certify_trails == [((64, 128, 256), "positive")]
    assert tracer.counts["certreal.evaluations"] == 3
    assert tracer.max_values["certreal.max_prec_bits"] == 256


def test_by_value_imports_are_wrapped_too(installed):
    tracer, _ = installed
    # obstruction holds certify_sign by value; 201/2 escalates past 64 bits
    report = obstruction.c_alpha_real(Fraction(201, 2), 103)
    assert report.sign == "negative"
    precisions, sign = tracer.certify_trails[-1]
    assert precisions[-1] == report.enclosure.prec and precisions[0] == 64
    assert all(b == 2 * a for a, b in zip(precisions, precisions[1:]))
    assert sign == "negative"
    characters.gram_matrix(characters.Alpha(2), list(perm.all_permutations(2)))
    assert tracer.calls["characters.psd_check_exact"] == 1
    assert tracer.counts["characters.psd_check_exact.dim_sum"] == 24
    assert tracer.calls["perm.compose"] >= 24 * 24


def test_uninstall_restores_every_namespace():
    original = (perm.compose, characters.compose, certreal.certify_sign, obstruction.certify_sign)
    init = perm.CubePermutation.__dict__["__init__"]
    from_indices = perm.NiceSet.__dict__["from_indices"]
    uninstall, _ = tracing.install(tracing.Tracer())
    assert characters.compose is not original[1]
    uninstall()
    assert (perm.compose, characters.compose, certreal.certify_sign, obstruction.certify_sign) == original
    assert perm.CubePermutation.__dict__["__init__"] is init
    assert perm.NiceSet.__dict__["from_indices"] is from_indices
