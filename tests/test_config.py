import json

import pytest

from swirlcurv import ValidationError, parse_config
from swirlcurv.config import radial_from_spec

BASIC = {
    "profile": {"expr": "2 - r^2"},
    "modes": [
        {"n": 1, "g": {"poly": [0, 0, 1, -1]}, "f": {"poly": [0, 1]}},
        {"n": 2, "g": {"expr": "r^2*(1-r)"}, "g_imag": {"poly": [0, 0, 1, -1]},
         "f": {"poly": [0.0]}},
    ],
    "params": {"m_max": 2},
}


def test_parse_from_dict():
    cfg = parse_config(BASIC)
    assert cfg.profile.u(0.5) == pytest.approx(1.75)
    assert len(cfg.modes) == 2
    assert cfg.modes[0].n == 1
    assert cfg.modes[1].g(0.5) == pytest.approx(0.125 + 0.125j)
    assert cfg.params["m_max"] == 2


def test_parse_from_string_and_path(tmp_path):
    text = json.dumps(BASIC)
    cfg = parse_config(text)
    assert cfg.modes[0].f(1.0) == pytest.approx(1.0 + 0j)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    cfg2 = parse_config(path)
    assert cfg2.modes[0].f(1.0) == cfg.modes[0].f(1.0)
    # a str is JSON text even when it names a file, and a Path is always a file
    with pytest.raises(json.JSONDecodeError):
        parse_config(str(path))
    with pytest.raises(FileNotFoundError):
        parse_config(tmp_path / "missing.json")


def test_round_trip_is_byte_identical():
    cfg = parse_config(BASIC)
    once = cfg.to_json()
    again = parse_config(once).to_json()
    assert once == again
    assert once.endswith("\n")


def test_missing_pieces_rejected():
    with pytest.raises(ValidationError):
        parse_config({"modes": []})
    with pytest.raises(ValidationError):
        parse_config({"profile": {"expr": "1"}, "modes": [{"g": {"poly": [0.0]}}]})
    with pytest.raises(ValidationError):
        radial_from_spec({"poly": [1.0], "expr": "1"})
    with pytest.raises(ValidationError):
        radial_from_spec({"spline": [1.0]})
    with pytest.raises(ValidationError):
        radial_from_spec("r^2")


def test_table_profile_spec():
    import numpy as np
    r = np.linspace(0, 1, 9).tolist()
    cfg = parse_config({"profile": {"table": {"r": r, "values": [1.0] * 9}}})
    assert cfg.profile.u(0.3) == pytest.approx(1.0)


def test_missing_mode_functions_default_to_zero():
    cfg = parse_config({"profile": {"poly": [1.0]}, "modes": [{"n": 3}]})
    assert cfg.modes[0].g(0.7) == 0.0
    assert cfg.modes[0].f(0.7) == 0.0
