import pytest

from fanav.errors import ConfigError, GenerationError
from fanav.expert import MAX_GRID_CELLS, plan_path
from fanav.sim import format_world, sample_free_point
from fanav import worldgen
from fanav.worldgen import generate_world

import numpy as np


def test_zero_density_is_empty_room():
    w = generate_world(10, 10, 0.0, seed=1)
    assert w.obstacles == ()
    assert w.width == 10 and w.height == 10


def test_same_seed_identical_bytes():
    a = generate_world(10, 10, 0.12, seed=7, name="a")
    b = generate_world(10, 10, 0.12, seed=7, name="a")
    assert format_world(a) == format_world(b)
    c = generate_world(10, 10, 0.12, seed=8, name="a")
    assert format_world(c) != format_world(a)


def test_density_is_roughly_respected():
    w = generate_world(10, 10, 0.15, seed=3)
    area = 0.0
    for ob in w.obstacles:
        if hasattr(ob, "r"):
            area += np.pi * ob.r ** 2
        else:
            area += ob.w * ob.h
    assert 0.15 <= area / 100.0 <= 0.25  # stops once the target is crossed


def test_generated_world_is_plannable():
    w = generate_world(10, 10, 0.15, seed=5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = sample_free_point(w, rng, 0.35)
        b = sample_free_point(w, rng, 0.35)
        plan_path(w, a, b, 0.2)  # must not raise


def test_bad_density_rejected():
    with pytest.raises(ConfigError):
        generate_world(10, 10, 1.5, seed=0)


def test_impossible_layout_raises_generation_error():
    # a fat robot cannot connect a heavily cluttered small room
    with pytest.raises(GenerationError):
        generate_world(4, 4, 0.4, seed=0, robot_radius=0.9, max_attempts=3)


def test_planning_grid_bounds_the_room(monkeypatch):
    # 0.1 m cells: a 100 m square holds 1000 x 1000 of them, the most
    # allowed; the room is refused before any obstacle is sampled
    assert MAX_GRID_CELLS == 1000 * 1000
    monkeypatch.setattr(worldgen, "_sample_layout", lambda *a: ())
    assert generate_world(100, 100.05, 0.3, seed=0).obstacles == ()
    for width, height in ((100, 100.2), (1e6, 1e6), (2, 1e12)):
        with pytest.raises(ConfigError, match="too large to plan in"):
            generate_world(width, height, 0.3, seed=0)
    # an empty room is refused too: no later command could plan in it
    with pytest.raises(ConfigError, match="too large to plan in"):
        generate_world(1e6, 1e6, 0.0, seed=0)
