import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardtorus.serialize import _encode_str, canonical_json

ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t",
           "\b": "\\b", "\f": "\\f"}


def encode_str_reference(s):
    """Escape every character one by one."""
    out = ['"']
    for ch in s:
        if ch in ESCAPES:
            out.append(ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


class TestEncodeStr:
    @given(st.text())
    @settings(max_examples=500)
    def test_matches_escaping_loop(self, s):
        assert _encode_str(s) == encode_str_reference(s)

    @given(st.text(alphabet=st.sampled_from('ab "\\\n\t\x00\x1f\x7f\u00e9\u2028')))
    def test_matches_escaping_loop_on_special_characters(self, s):
        assert _encode_str(s) == encode_str_reference(s)

    def test_examples(self):
        assert _encode_str("") == '""'
        assert _encode_str("regular") == '"regular"'
        assert _encode_str('a"b\\c\n') == '"a\\"b\\\\c\\n"'
        assert _encode_str("\x01\u00e9") == '"\\u0001\u00e9"'
        assert canonical_json({"k\t": "v"}) == '{"k\\t":"v"}'


class TestCanonicalJson:
    def test_numpy_float_is_a_float(self):
        # np.float64 subclasses float, so it encodes as the float does
        assert canonical_json([np.float64(0.1)]) == canonical_json([0.1])

    @pytest.mark.parametrize("value", [np.int64(3), np.array([1.0, 2.0])])
    def test_other_numpy_values_refused(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_json({"k": value})
