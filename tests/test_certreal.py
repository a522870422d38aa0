from fractions import Fraction

from cubechar.certreal import Enclosure, certify_sign


def _recording(tried, decide_at=None):
    """An evaluation whose enclosure straddles 0 until prec reaches decide_at."""

    def evaluate(prec):
        tried.append(prec)
        lo = Fraction(1) if decide_at is not None and prec >= decide_at else Fraction(-1)
        return Enclosure(lo, Fraction(2), prec)

    return evaluate


def test_certify_sign_doubles_up_to_the_environment_cap(monkeypatch):
    monkeypatch.setenv("CUBECHAR_PRECISION_CAP", "256")
    tried = []
    enc, sign = certify_sign(_recording(tried))
    assert tried == [64, 128, 256]
    assert sign == "undetermined" and enc.prec == 256


def test_certify_sign_stops_at_the_first_decided_precision(monkeypatch):
    monkeypatch.setenv("CUBECHAR_PRECISION_CAP", "256")
    tried = []
    enc, sign = certify_sign(_recording(tried, decide_at=128))
    assert tried == [64, 128]
    assert sign == "positive" and enc.prec == 128


def test_certify_sign_clamps_to_a_cap_between_doublings(monkeypatch):
    monkeypatch.setenv("CUBECHAR_PRECISION_CAP", "200")
    tried = []
    certify_sign(_recording(tried), start_prec=64)
    assert tried == [64, 128, 200]
    monkeypatch.setenv("CUBECHAR_PRECISION_CAP", "64")
    tried.clear()
    certify_sign(_recording(tried), start_prec=128)
    assert tried == [64]
