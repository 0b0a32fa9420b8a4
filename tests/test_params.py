import math
from dataclasses import fields

import numpy as np
import pytest

from cyclefield.errors import ParameterError
from cyclefield.params import ModelParams, load_config, parse_config_text

NAMES = [f.name for f in fields(ModelParams)]
POSITIVE = ["varpi", "nu", "lambda_sq", "delta", "epsilon", "K_bar", "C_bar", "A0", "theta_sq"]
NONNEGATIVE = ["varsigma", "r_c", "kappa", "gamma", "C0", "sigma_sq", "eta_sq"]
SIGNED = ["alpha_laplace", "g"]


def test_every_field_is_classified():
    assert sorted(POSITIVE + NONNEGATIVE + SIGNED) == sorted(NAMES)


class TestModelParams:
    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize(
        "value", [True, "0.1", np.int64(1), math.nan, math.inf, -math.inf],
        ids=["bool", "str", "int64", "nan", "inf", "-inf"],
    )
    def test_rejects_non_real_or_non_finite(self, name, value):
        with pytest.raises(ParameterError, match=name):
            ModelParams(**{name: value})

    @pytest.mark.parametrize("name", POSITIVE)
    def test_positive_field_rejects_zero(self, name):
        with pytest.raises(ParameterError, match=f"{name} must be > 0"):
            ModelParams(**{name: 0.0})

    @pytest.mark.parametrize("name", NONNEGATIVE)
    def test_nonnegative_field_accepts_zero_only_from_above(self, name):
        assert getattr(ModelParams(**{name: 0.0}), name) == 0.0
        with pytest.raises(ParameterError, match=f"{name} must be >= 0"):
            ModelParams(**{name: -1e-300})

    @pytest.mark.parametrize("name", ["epsilon", "kappa"])
    def test_share_rejects_one(self, name):
        with pytest.raises(ParameterError, match=name):
            ModelParams(**{name: 1.0})
        assert getattr(ModelParams(**{name: 0.99}), name) == 0.99

    @pytest.mark.parametrize("name", SIGNED)
    def test_signed_field_accepts_negatives(self, name):
        assert getattr(ModelParams(**{name: -2.5}), name) == -2.5

    def test_ints_stored_as_floats(self):
        p = ModelParams(A0=9, lambda_sq=100, g=-1)
        for name, value in (("A0", 9.0), ("lambda_sq", 100.0), ("g", -1.0)):
            assert type(getattr(p, name)) is float
            assert getattr(p, name) == value

    def test_replace_revalidates(self):
        p = ModelParams()
        assert p.replace(A0=9.0).A0 == 9.0
        with pytest.raises(ParameterError):
            p.replace(A0=0.0)


BASES = {"default": ModelParams(), "moved": ModelParams(A0=9.5, kappa=0.3, g=-0.5, C0=2.0)}
KINDS = {
    "bool": True, "str": "0.1", "int64": np.int64(1), "nan": math.nan, "inf": math.inf,
    "-inf": -math.inf, "negative": -1.0, "zero": 0.0, "one": 1.0, "above-one": 2.5, "int": 3,
}
PAIRS = [
    {"A0": 0.0, "varsigma": -1.0},     # a positive field's fault before a non-negative one's
    {"g": math.nan, "A0": 0.0},        # a type fault before any range fault
    {"eta_sq": "x", "varpi": True},    # type faults in field order
    {"epsilon": 0.0, "delta": -1.0},   # positive faults in field order
    {"kappa": 2.0, "gamma": -1.0},     # lower bounds before the share bounds
    {"kappa": 1.0, "epsilon": 1.0},    # epsilon's share bound before kappa's
    {"lambda_sq": 100, "g": -1},       # ints stored as floats
    {"A0": 0.0, "bogus": 1.0},         # an unknown key before any field check
    {"bogus": 1.0},
]


class TestReplace:
    """``replace`` re-checks only what it changes, with the constructor's outcome."""

    def assert_same_as_constructor(self, base, changes):
        try:
            expected = ModelParams(**{**base.to_dict(), **changes})
        except (ParameterError, TypeError) as exc:
            with pytest.raises(type(exc)) as info:
                base.replace(**changes)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
            return
        got = base.replace(**changes)
        assert got == expected and hash(got) == hash(expected)
        assert got.to_dict() == expected.to_dict()
        assert [type(v) for v in got.to_dict().values()] == [float] * len(NAMES)

    @pytest.mark.parametrize("base", BASES.values(), ids=list(BASES))
    @pytest.mark.parametrize("kind", KINDS.values(), ids=list(KINDS))
    @pytest.mark.parametrize("name", NAMES)
    def test_one_field(self, base, name, kind):
        self.assert_same_as_constructor(base, {name: kind})

    @pytest.mark.parametrize("base", BASES.values(), ids=list(BASES))
    @pytest.mark.parametrize("changes", PAIRS, ids=[",".join(c) for c in PAIRS])
    @pytest.mark.parametrize("reverse", [False, True], ids=["given", "reversed"])
    def test_two_fields_in_either_order(self, base, changes, reverse):
        items = list(changes.items())
        self.assert_same_as_constructor(base, dict(items[::-1] if reverse else items))

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"varsigma": -1.0, "delta": 0.0}, "delta must be > 0, got 0.0"),
            ({"kappa": 1.0, "r_c": -1.0}, "r_c must be >= 0, got -1.0"),
            ({"epsilon": 1.0, "kappa": -0.5}, "kappa must be >= 0, got -0.5"),
            ({"kappa": 1.0, "epsilon": 1.0}, "epsilon must lie in (0, 1), got 1.0"),
            ({"C0": -1.0, "gamma": -2.0}, "gamma must be >= 0, got -2.0"),
            ({"delta": 0.0, "nu": math.nan}, "nu must be finite, got nan"),
            ({"eta_sq": -1.0, "theta_sq": 0.0, "varsigma": -3.0}, "theta_sq must be > 0, got 0.0"),
        ],
    )
    def test_first_of_several_faults(self, changes, message):
        # every type fault first, then every > 0 rule, then >= 0, then the
        # intervals, each in field order, whichever order the fields are given in
        for given in (changes, dict(reversed(changes.items()))):
            for make in (lambda c: ModelParams(**c), lambda c: ModelParams().replace(**c)):
                with pytest.raises(ParameterError) as info:
                    make(given)
                assert str(info.value) == message

    def test_copy_leaves_the_original(self):
        base = ModelParams()
        moved = base.replace(A0=9.0)
        assert base == ModelParams() and moved.A0 == 9.0 and moved is not base
        assert base.replace() == base


class TestParseConfigText:
    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n  A0 = 9.5  # trailing\n\t\ngamma=0\n   # indented comment\n"
        assert parse_config_text(text) == ModelParams(A0=9.5, gamma=0.0)

    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == ModelParams()

    @pytest.mark.parametrize(
        "text,match",
        [
            ("bogus = 1\n", "line 1: unknown configuration key 'bogus'"),
            ("A0 = 8\nA0 = 9\n", "line 2: duplicate configuration key 'A0'"),
            ("# ok\nA0 9\n", "line 2: expected key=value"),
            ("A0 = nine\n", "line 1: invalid number for A0: 'nine'"),
            ("A0 =\n", "line 1: invalid number for A0: ''"),
        ],
        ids=["unknown-key", "duplicate-key", "no-equals", "bad-number", "empty-number"],
    )
    def test_rejects(self, text, match):
        with pytest.raises(ParameterError) as info:
            parse_config_text(text)
        assert str(info.value).startswith(match)

    def test_values_pass_the_field_checks(self):
        with pytest.raises(ParameterError, match="A0 must be > 0"):
            parse_config_text("A0 = 0\n")

    def test_load_config_reads_the_file(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("kappa = 0.25\n")
        assert load_config(str(cfg)) == ModelParams(kappa=0.25)
        with pytest.raises(ParameterError, match="cannot read configuration file"):
            load_config(str(tmp_path / "missing.cfg"))
