import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqbrain.errors import ConfigError
from cqbrain.pipeline.cli import main
from cqbrain.pipeline.commands import SCHEMAS
from cqbrain.pipeline.config import Field, load_config, parse_config_text, resolve_config


SCHEMA = {
    "name": Field("str"),
    "count": Field("int", 4),
    "rate": Field("float", 0.5),
    "enabled": Field("bool", False),
    "mode": Field("choice", "fast", ("fast", "slow")),
}


class TestParsing:
    def test_basic_lines(self):
        raw = parse_config_text("a = 1\nb=two\n")
        assert raw == {"a": "1", "b": "two"}

    def test_comments_and_blanks(self):
        raw = parse_config_text("# header\n\na = 1  # trailing\n   \n")
        assert raw == {"a": "1"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("just a line\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("a = 1\na = 2\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("= 2\n")


class TestResolution:
    def test_defaults_applied(self):
        cfg = resolve_config({"name": "x"}, SCHEMA)
        assert cfg == {"name": "x", "count": 4, "rate": 0.5, "enabled": False, "mode": "fast"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            resolve_config({"name": "x", "typo": "1"}, SCHEMA)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="name"):
            resolve_config({}, SCHEMA)

    def test_typed_values(self):
        cfg = resolve_config({"name": "n", "count": "7", "rate": "1e-3", "enabled": "true",
                              "mode": "slow"}, SCHEMA)
        assert cfg["count"] == 7
        assert cfg["rate"] == pytest.approx(1e-3)
        assert cfg["enabled"] is True
        assert cfg["mode"] == "slow"

    def test_bad_int(self):
        with pytest.raises(ConfigError):
            resolve_config({"name": "n", "count": "x"}, SCHEMA)

    def test_bad_choice(self):
        with pytest.raises(ConfigError):
            resolve_config({"name": "n", "mode": "medium"}, SCHEMA)

    def test_bool_spellings(self):
        for text, expected in (("yes", True), ("off", False), ("1", True), ("0", False)):
            assert resolve_config({"name": "n", "enabled": text}, SCHEMA)["enabled"] is expected
        with pytest.raises(ConfigError):
            resolve_config({"name": "n", "enabled": "maybe"}, SCHEMA)

    def test_in_path_must_exist(self, tmp_path):
        schema = {"src": Field("in_file"), "dir": Field("in_dir", None)}
        real = tmp_path / "exists.txt"
        real.write_text("x")
        assert resolve_config({"src": str(real)}, schema)["src"] == real
        assert resolve_config({"src": str(real), "dir": str(tmp_path)}, schema)["dir"] == tmp_path
        with pytest.raises(ConfigError, match="^src: path .* does not exist$"):
            resolve_config({"src": str(tmp_path / "missing")}, schema)
        with pytest.raises(ConfigError, match="^dir: path .* does not exist$"):
            resolve_config({"src": str(real), "dir": str(tmp_path / "missing")}, schema)

    def test_input_path_of_the_wrong_type_names_the_key(self, tmp_path):
        schema = {"src": Field("in_file"), "dir": Field("in_dir", None)}
        real = tmp_path / "exists.txt"
        real.write_text("x")
        with pytest.raises(ConfigError, match="^src: path .* is not a file$"):
            resolve_config({"src": str(tmp_path)}, schema)
        with pytest.raises(ConfigError, match="^dir: path .* is not a directory$"):
            resolve_config({"src": str(real), "dir": str(real)}, schema)

    @pytest.mark.parametrize("kind", ["in_file", "in_dir"])
    def test_over_long_input_path_names_the_key(self, kind):
        # the system refuses to look the name up (ENAMETOOLONG) rather than answer "missing"
        with pytest.raises(ConfigError, match="^src: cannot check path '1+' "):
            resolve_config({"src": "1" * 5000}, {"src": Field(kind)})

    @pytest.mark.parametrize("command, key", [("build-dataset", "input_dir"), ("segment-apply", "checkpoint")])
    def test_over_long_input_path_exits_1(self, tmp_path, command, key):
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = {'1' * 5000}\n")
        assert main([command, "-c", str(path)]) == 1

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("name = demo\ncount = 2\n")
        cfg = load_config(path, SCHEMA)
        assert cfg["name"] == "demo" and cfg["count"] == 2

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg", SCHEMA)

    @pytest.mark.parametrize("content", [b"dataset = \xff\xfe\n", b"\xff\xfe", b"name = \xc3\n"])
    def test_non_utf8_config_is_a_config_error(self, tmp_path, content):
        path = tmp_path / "bad.cfg"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="^cannot read config .*bad.cfg"):
            load_config(path, SCHEMA)


class TestBounds:
    SCHEMA = {
        "n": Field("int", 1, low=0),
        "rate": Field("float", 0.5, low=0.0),
        "free": Field("float", 0.0),
        "sizes": Field("ints", (8, 16), low=0),
    }

    def test_values_above_the_bound_pass(self):
        cfg = resolve_config({"n": "1", "rate": "1e-9", "free": "-3", "sizes": "4,1"}, self.SCHEMA)
        assert cfg == {"n": 1, "rate": 1e-9, "free": -3.0, "sizes": (4, 1)}

    def test_defaults_need_no_parsing(self):
        assert resolve_config({}, self.SCHEMA)["sizes"] == (8, 16)

    @pytest.mark.parametrize("key, value, message", [
        ("n", "0", "n: must be > 0, got 0"),
        ("n", "-2", "n: must be > 0, got -2"),
        ("rate", "0", "rate: must be > 0, got 0.0"),
        ("rate", "-1", "rate: must be > 0, got -1.0"),
        ("sizes", "8,0", "sizes: must be > 0, got 0"),
    ])
    def test_values_at_or_below_the_bound_name_the_key(self, key, value, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            resolve_config({key: value}, self.SCHEMA)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_floats_must_be_finite_even_without_a_bound(self, value):
        for key in ("rate", "free"):
            with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
                resolve_config({key: value}, self.SCHEMA)

    @pytest.mark.parametrize("value", ["8,x", "", "8,,16", "8.5"])
    def test_unparseable_int_lists_rejected(self, value):
        with pytest.raises(ConfigError, match="^sizes: cannot parse"):
            resolve_config({"sizes": value}, self.SCHEMA)


_KEYS = sorted({key for schema in SCHEMAS.values() for key in schema})
_VALUES = st.one_of(st.text(max_size=12), st.sampled_from(
    ["0", "-1", "1", "16", "nan", "1e999", "8,16", "true", "3plane", "axial", "zero", ".", "1" * 5000]))
_LINES = st.lists(st.tuples(st.one_of(st.sampled_from(_KEYS), st.text(max_size=6)), _VALUES),
                  max_size=6).map(lambda pairs: "".join(f"{k} = {v}\n" for k, v in pairs).encode("utf-8"))


class TestConfigProperties:
    """Any bytes given as a config file either resolve or make `main` exit 1."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(SCHEMAS)),
           st.one_of(st.binary(max_size=80), _LINES, st.tuples(_LINES, st.binary(max_size=8)).map(b"".join)))
    def test_any_bytes_resolve_or_exit_1(self, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.cfg"
            path.write_bytes(data)
            try:
                load_config(path, SCHEMAS[command])
            except ConfigError:
                assert main([command, "-c", str(path)]) == 1
