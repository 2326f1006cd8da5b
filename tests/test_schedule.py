"""Weight schedules and the distance configuration."""

import pytest

from treemover import (ConfigError, TmdConfig, WeightSchedule, constant_weights,
                       pascal_weights, pascal_weights_scaled)
from treemover.schedule import PASCAL_MAX_DEPTH, positive_finite


@pytest.mark.parametrize("x", [0.0, -1.0, float("inf"), float("nan")])
def test_positive_finite_rejects(x):
    with pytest.raises(ConfigError, match=f"^gamma must be positive and finite, got {x}$"):
        positive_finite("gamma", x)


@pytest.mark.parametrize("x", [5e-324, 1e308, 2])
def test_positive_finite_accepts(x):
    assert positive_finite("gamma", x) == x
    assert type(positive_finite("gamma", x)) is float


def test_constant_weights():
    s = constant_weights(0.5)
    assert [s.weight(l) for l in (1, 2, 7, 100)] == [0.5] * 4
    assert s.max_level() is None
    with pytest.raises(ConfigError):
        constant_weights(0.0)
    with pytest.raises(ConfigError):
        constant_weights(-1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="constant weight must be positive and finite"):
            constant_weights(bad)


def test_pascal_values_depth4():
    s = pascal_weights(4)
    assert [s.weight(l) for l in range(1, 5)] == [0.25, 2.0 / 3.0, 1.5, 4.0]


def test_pascal_depth1_is_epsilon():
    assert pascal_weights(1).weight(1) == 1.0
    assert pascal_weights(1, 0.3).weight(1) == 0.3


def test_pascal_scales_linearly_in_epsilon():
    base = pascal_weights(5)
    scaled = pascal_weights(5, 2.5)
    for l in range(1, 6):
        assert scaled.weight(l) == pytest.approx(2.5 * base.weight(l), rel=1e-15)


def test_pascal_endpoints():
    # ranges from epsilon/L up to epsilon*L
    for L in (2, 3, 6):
        s = pascal_weights(L)
        assert s.weight(1) == pytest.approx(1.0 / L)
        assert s.weight(L) == pytest.approx(float(L))


def test_pascal_rejects_bad_args():
    with pytest.raises(ConfigError):
        pascal_weights(0)
    with pytest.raises(ConfigError):
        pascal_weights(3, 0.0)
    with pytest.raises(ConfigError, match=r"^epsilon must be positive and finite, got inf$"):
        pascal_weights(3, float("inf"))
    # a finite epsilon whose weights overflow or underflow
    with pytest.raises(ConfigError, match=r"^w\(2\) must be positive and finite, got inf$"):
        pascal_weights(2, 1e308)
    with pytest.raises(ConfigError, match=r"^w\(1\) must be positive and finite, got 0.0$"):
        pascal_weights(4, 5e-324)
    assert pascal_weights(1, 1e308).weight(1) == 1e308
    assert pascal_weights(1, 5e-324).weight(1) == 5e-324


def test_pascal_depth_is_capped_before_any_table_is_built():
    assert PASCAL_MAX_DEPTH == 10_000
    s = pascal_weights(10_000)
    assert s.max_level() == 10_000
    assert s.weight(1) == 1.0 / 10_000 and s.weight(10_000) == 10_000.0
    for depth in (10_001, 99999999999):
        with pytest.raises(ConfigError, match=rf"^pascal schedule depth must be at "
                                              rf"most 10000, got {depth}$"):
            pascal_weights(depth)
    # the scaled schedule shares the cap, and checks it before reading its scales
    assert pascal_weights_scaled(10_000, [1.0] * 10_000) == WeightSchedule(
        "pascal_scaled", table=s.table)
    with pytest.raises(ConfigError, match=r"^pascal schedule depth must be at most 10000"):
        pascal_weights_scaled(10_001, None)


def test_pascal_out_of_range_level_errors():
    s = pascal_weights(3)
    with pytest.raises(ConfigError):
        s.weight(4)
    with pytest.raises(ConfigError):
        s.weight(0)


def test_pascal_scaled_matches_plain_for_uniform_scales():
    plain = pascal_weights(4, 2.0)
    scaled = pascal_weights_scaled(4, [2.0] * 4)
    for l in range(1, 5):
        assert scaled.weight(l) == plain.weight(l)
    with pytest.raises(ConfigError):
        pascal_weights_scaled(3, [1.0, 1.0])
    with pytest.raises(ConfigError):
        pascal_weights_scaled(2, [1.0, 0.0])
    with pytest.raises(ConfigError, match="^scale must be positive and finite, got inf$"):
        pascal_weights_scaled(2, [1.0, float("inf")])


def test_config_validation():
    cfg = TmdConfig(3, constant_weights(1.0), "mean")
    assert cfg.depth == 3 and cfg.mode == "mean"
    with pytest.raises(ConfigError):
        TmdConfig(0, constant_weights(1.0))
    with pytest.raises(ConfigError):
        TmdConfig(2, constant_weights(1.0), "median")
    # a bounded schedule must cover the depths the distance consumes
    with pytest.raises(ConfigError):
        TmdConfig(6, pascal_weights(4))
    TmdConfig(5, pascal_weights(4))  # needs w(1)..w(4): fine


def test_schedule_json_roundtrip():
    for sched in (constant_weights(0.25), pascal_weights(4, 2.0),
                  pascal_weights_scaled(3, [1.0, 2.0, 3.0])):
        again = WeightSchedule.from_json(sched.to_json())
        assert again == sched
    cfg = TmdConfig(4, pascal_weights(4), "mean")
    assert TmdConfig.from_json(cfg.to_json()) == cfg
