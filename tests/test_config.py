import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardtorus import config
from hardtorus.config import (ExperimentConfig, parse_config,
                              serialize_config)
from hardtorus.errors import ConfigError
from hardtorus.geometry import Tolerances

MINIMAL = """\
[system]
masses = 1.0, 2.0
radius = 0.1
"""

FULL_TEXT = """\
[system]
masses = 1, 0.33333333333333331
radius = 0.10000000000000001

[run]
seed = 7
t_max = 12.5

[tolerances]
collision_root_tol = 9.9999999999999998e-13
tangency_tol = 1.0000000000000001e-09
double_event_tol = 9.9999999999999998e-13
rank_rel_tol = 1e-08

[analysis]
c0 = 2
delta0 = 9.9999999999999995e-07
horizon = 50
ensemble = 3
reorth_interval = 5
l0 = 1, -2
max_group = 4

[scan]
radius_grid = 0.050000000000000003, 0.10000000000000001
mass_grid = 1, 1; 1, 2
"""


class TestParse:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.masses == (1.0, 2.0)
        assert cfg.radius == 0.1
        assert cfg.seed == 0
        assert cfg.t_max == 10.0
        assert cfg.tolerances == Tolerances()
        assert cfg.l0 is None
        assert cfg.ensemble == 1
        assert cfg.radius_grid == () and cfg.mass_grid == ()

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n; alt comment\n" + MINIMAL
        assert parse_config(text) == parse_config(MINIMAL)

    def test_full_document(self):
        text = MINIMAL + """
[run]
seed = 42
t_max = 25.0

[tolerances]
tangency_tol = 1e-9

[analysis]
c0 = 2.0
l0 = 1, -2
ensemble = 3
max_group = 4

[scan]
radius_grid = 0.05, 0.1
mass_grid = 1.0, 1.0; 1.0, 2.0
"""
        cfg = parse_config(text)
        assert cfg.seed == 42 and cfg.t_max == 25.0
        assert cfg.tolerances.tangency_tol == 1e-9
        assert cfg.c0 == 2.0 and cfg.l0 == (1, -2)
        assert cfg.ensemble == 3 and cfg.max_group == 4
        assert cfg.radius_grid == (0.05, 0.1)
        assert cfg.mass_grid == ((1.0, 1.0), (1.0, 2.0))

    def test_unknown_key_named_with_line(self):
        text = "[system]\nmasses = 1.0, 1.0\nraduis = 0.1\n"
        with pytest.raises(ConfigError, match="raduis") as exc:
            parse_config(text)
        assert exc.value.line == 3

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[sytem\]"):
            parse_config("[sytem]\nmasses = 1.0\n")

    def test_unterminated_header(self):
        with pytest.raises(ConfigError, match="unterminated"):
            parse_config("[system\nmasses = 1.0\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("masses = 1.0, 1.0\n")

    def test_duplicate_key(self):
        text = MINIMAL + "radius = 0.2\n"
        with pytest.raises(ConfigError, match="duplicate") as exc:
            parse_config(text)
        assert exc.value.line == 4

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required key radius"):
            parse_config("[system]\nmasses = 1.0, 1.0\n")

    def test_malformed_number_has_line(self):
        text = "[system]\nmasses = 1.0, 1.0\nradius = fat\n"
        with pytest.raises(ConfigError, match="expects a number") as exc:
            parse_config(text)
        assert exc.value.line == 3

    @pytest.mark.parametrize("key, line, text", [
        ("t_max", 5, MINIMAL + "[run]\nt_max = nan\n"),
        ("t_max", 5, MINIMAL + "[run]\nt_max = inf\n"),
        ("c0", 5, MINIMAL + "[analysis]\nc0 = nan\n"),
        ("delta0", 5, MINIMAL + "[analysis]\ndelta0 = -inf\n"),
        ("horizon", 6, MINIMAL + "[analysis]\nc0 = 1\nhorizon = inf\n"),
        ("tangency_tol", 5, MINIMAL + "[tolerances]\ntangency_tol = NaN\n"),
        ("masses", 2, "[system]\nmasses = 1.0, nan\nradius = 0.1\n"),
    ])
    def test_non_finite_number_has_line(self, key, line, text):
        with pytest.raises(ConfigError, match=f"{key} expects a finite") as exc:
            parse_config(text)
        assert exc.value.line == line

    def test_l0_needs_two_integers(self):
        with pytest.raises(ConfigError, match="two comma-separated"):
            parse_config(MINIMAL + "[analysis]\nl0 = 1\n")

    @pytest.mark.parametrize("l0", [(1.7, 0.2), (0.5, 0.5), (1, 0.5),
                                    (math.inf, 1)])
    def test_l0_entries_must_be_integers(self, l0):
        with pytest.raises(ConfigError, match="l0 entries must be integers"):
            ExperimentConfig(masses=(1.0, 2.0), radius=0.1, l0=l0)

    def test_l0_integer_entries_kept(self):
        for l0 in ((1, -2), (1.0, -2.0)):
            cfg = ExperimentConfig(masses=(1.0, 2.0), radius=0.1, l0=l0)
            assert cfg.l0 == (1, -2)
            assert all(type(c) is int for c in cfg.l0)

    @pytest.mark.parametrize("l0", [(0, 0), (2, 0), (-3, 6)])
    def test_l0_must_be_primitive(self, l0):
        with pytest.raises(ConfigError, match="l0 must be a nonzero primitive"):
            parse_config(MINIMAL + f"[analysis]\nl0 = {l0[0]}, {l0[1]}\n")
        with pytest.raises(ConfigError, match="l0 must be a nonzero primitive"):
            ExperimentConfig(masses=(1.0, 2.0), radius=0.1, l0=l0)

    def test_seed_bounds(self):
        with pytest.raises(ConfigError, match="64-bit"):
            parse_config(MINIMAL + "[run]\nseed = -1\n")
        with pytest.raises(ConfigError, match="64-bit"):
            parse_config(MINIMAL + f"[run]\nseed = {2 ** 64}\n")

    def test_value_checks(self):
        with pytest.raises(ConfigError, match="t_max"):
            parse_config(MINIMAL + "[run]\nt_max = 0\n")
        with pytest.raises(ConfigError, match="ensemble"):
            parse_config(MINIMAL + "[analysis]\nensemble = 0\n")
        with pytest.raises(ConfigError, match="tolerance"):
            parse_config(MINIMAL + "[tolerances]\ntangency_tol = -1\n")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_direct_build_refuses_non_finite(self, bad):
        for name in ("t_max", "c0", "delta0", "horizon"):
            with pytest.raises(ConfigError, match=f"{name} must be positive"):
                ExperimentConfig(masses=(1.0, 2.0), radius=0.1, **{name: bad})
        with pytest.raises(ConfigError, match="rank_rel_tol"):
            ExperimentConfig(masses=(1.0, 2.0), radius=0.1,
                             tolerances=Tolerances(rank_rel_tol=bad))

    # serialize_config, the first step of cli.run, cannot write a
    # non-finite grid entry, so the config refuses it by name
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_direct_build_refuses_non_finite_radius_grid(self, bad):
        with pytest.raises(ConfigError, match="radius_grid"):
            ExperimentConfig(masses=(1.0, 1.0), radius=0.1,
                             radius_grid=(0.1, bad))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_direct_build_refuses_non_finite_mass_grid(self, bad):
        with pytest.raises(ConfigError, match="mass_grid row 1"):
            ExperimentConfig(masses=(1.0, 1.0), radius=0.1,
                             mass_grid=((1.0, 1.0), (1.0, bad)))


class TestSerialize:
    def test_round_trip_equality(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_idempotent_normal_form(self):
        text = serialize_config(parse_config(MINIMAL))
        assert serialize_config(parse_config(text)) == text

    def test_optional_fields_written_only_when_set(self):
        text = serialize_config(parse_config(MINIMAL))
        assert "l0" not in text and "[scan]" not in text
        cfg = ExperimentConfig(masses=(1.0, 1.0), radius=0.1, l0=(0, 1),
                               radius_grid=(0.05,))
        text2 = serialize_config(cfg)
        assert "l0 = 0, 1" in text2 and "radius_grid" in text2

    def test_full_canonical_text(self):
        cfg = ExperimentConfig(
            masses=(1.0, 1.0 / 3), radius=0.1, seed=7, t_max=12.5,
            tolerances=Tolerances(tangency_tol=1e-9), c0=2.0, l0=(1, -2),
            delta0=1e-6, horizon=50.0, ensemble=3, reorth_interval=5,
            max_group=4, radius_grid=(0.05, 0.1),
            mass_grid=((1.0, 1.0), (1.0, 2.0)))
        assert serialize_config(cfg) == FULL_TEXT
        assert parse_config(FULL_TEXT) == cfg

    def test_key_table_names_every_field_once(self):
        names = [(section == "tolerances", key)
                 for section, key, _, _ in config._KEYS]
        assert len(set(names)) == len(names)
        want = {(True, f.name) for f in fields(Tolerances)}
        want |= {(False, f.name) for f in fields(ExperimentConfig)
                 if f.name != "tolerances"}
        assert set(names) == want

    @given(
        st.lists(st.floats(0.1, 10.0), min_size=2, max_size=4),
        st.floats(0.01, 0.12),
        st.integers(0, 2 ** 64 - 1),
        st.floats(0.1, 100.0),
        # l0 is a primitive lattice direction; others are refused
        st.one_of(st.none(),
                  st.tuples(st.integers(-5, 5), st.integers(-5, 5))
                  .filter(lambda l0: math.gcd(*l0) == 1)),
        st.integers(1, 4),
    )
    @settings(max_examples=100)
    def test_round_trip_fuzz(self, masses, radius, seed, t_max, l0, ensemble):
        cfg = ExperimentConfig(masses=tuple(masses), radius=radius,
                               seed=seed, t_max=t_max, l0=l0,
                               ensemble=ensemble)
        assert parse_config(serialize_config(cfg)) == cfg

    @given(
        st.one_of(st.none(), st.integers(1, 10 ** 6)),
        st.lists(st.floats(0.01, 0.12), max_size=3),
        st.lists(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=3),
                 max_size=3),
        st.floats(1e-14, 1e-6),
        st.floats(1e-9, 1e-3),
    )
    @settings(max_examples=100)
    def test_round_trip_fuzz_optional_keys(self, max_group, radius_grid,
                                           mass_grid, root_tol, rank_tol):
        cfg = ExperimentConfig(
            masses=(1.0, 2.0), radius=0.05, max_group=max_group,
            radius_grid=tuple(radius_grid),
            mass_grid=tuple(map(tuple, mass_grid)),
            tolerances=Tolerances(collision_root_tol=root_tol,
                                  rank_rel_tol=rank_tol))
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text
        assert ("[scan]" in text) == bool(radius_grid or mass_grid)
        assert ("max_group" in text) == (max_group is not None)
