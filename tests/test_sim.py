import math
from importlib import resources

import numpy as np
import pytest

from fanav.configfile import format_value
from fanav.data import EncoderProfile, build_dataset
from fanav.errors import (
    ConfigError,
    InvalidPoseError,
    NumericError,
    WorldFormatError,
)
from fanav.expert import ExpertConfig, run_episode
from fanav import sim
from fanav.geometry import Circle, Rect
from fanav.sim import (
    COLLISION,
    NONE,
    SUCCESS,
    TIMEOUT,
    Action,
    EpisodeConfig,
    Pose,
    RobotSpec,
    World,
    format_world,
    load_world,
    observe,
    parse_world,
    raycast,
    relative_goal,
    sample_task,
    simulate,
    step_env,
    step_kinematics,
)


def small_spec(**kw) -> RobotSpec:
    return RobotSpec(**kw)


# ---------------------------------------------------------------------------
# types and invariants
# ---------------------------------------------------------------------------

def test_world_validation():
    with pytest.raises(ConfigError):
        World(0.0, 5.0)
    with pytest.raises(ConfigError):
        World(5.0, 5.0, (Rect(10.0, 10.0, 1.0, 1.0),))
    w = World(5.0, 5.0, (Rect(4.5, 4.5, 2.0, 2.0),))  # partial overlap is fine
    assert w.diagonal == pytest.approx(math.hypot(5, 5))


def test_robot_spec_validation():
    with pytest.raises(ConfigError):
        RobotSpec(radius=-1)
    with pytest.raises(ConfigError):
        RobotSpec(lidar_fov_deg=400.0)
    with pytest.raises(ConfigError):
        RobotSpec(lidar_beams=0)


def test_episode_config_validation():
    with pytest.raises(ConfigError):
        EpisodeConfig(r_collision=1.0)
    with pytest.raises(ConfigError):
        EpisodeConfig(t_max=0)


def test_pose_normalizes_heading():
    assert Pose(0, 0, 3 * math.pi).heading == pytest.approx(math.pi)


# ---------------------------------------------------------------------------
# relative_goal
# ---------------------------------------------------------------------------

def test_relative_goal_cases():
    assert relative_goal(Pose(0, 0, 0), (3, 0)) == pytest.approx((3.0, 0.0))
    d, phi = relative_goal(Pose(0, 0, 0), (0, 2))
    assert (d, phi) == pytest.approx((2.0, math.pi / 2))
    d, phi = relative_goal(Pose(1, 1, math.pi / 2), (1, 4))
    assert (d, phi) == pytest.approx((3.0, 0.0))


# ---------------------------------------------------------------------------
# raycast
# ---------------------------------------------------------------------------

def test_raycast_empty_room_forward_beam():
    world = World(4.0, 4.0)
    # odd beam count puts the middle beam exactly along the heading
    spec = RobotSpec(lidar_beams=9)
    scan = raycast(world, Pose(2.0, 2.0, 0.0), spec)
    assert scan[4] == pytest.approx(2.0, abs=1e-12)


def test_raycast_beam_geometry():
    spec = RobotSpec(lidar_beams=109, lidar_fov_deg=270.0)
    b = spec.beam_bearings()
    assert b[0] == pytest.approx(-math.radians(135))
    assert b[-1] == pytest.approx(math.radians(135))
    assert np.allclose(np.diff(b), math.radians(2.5))
    assert RobotSpec(lidar_beams=1).beam_bearings() == pytest.approx([0.0])


def test_raycast_circle_ahead():
    world = World(20.0, 20.0, (Circle(13.0, 10.0, 0.5),))
    spec = RobotSpec(lidar_beams=9, lidar_fov_deg=90.0)
    scan = raycast(world, Pose(10.0, 10.0, 0.0), spec)
    assert scan[4] == pytest.approx(2.5, abs=1e-12)


def test_raycast_clips_to_range_max():
    world = World(100.0, 100.0)
    spec = RobotSpec(lidar_range=30.0)
    scan = raycast(world, Pose(50.0, 50.0, 0.0), spec)
    assert np.all(scan <= 30.0)
    assert np.any(scan == 30.0)


def test_raycast_outside_bounds_raises():
    with pytest.raises(InvalidPoseError):
        raycast(World(4, 4), Pose(5.0, 2.0, 0.0), small_spec())


def test_raycast_monotone_under_added_obstacle():
    rng = np.random.default_rng(7)
    spec = RobotSpec(lidar_beams=36)
    for _ in range(20):
        obstacles = []
        for _ in range(rng.integers(0, 4)):
            obstacles.append(Circle(rng.uniform(1, 9), rng.uniform(1, 9),
                                    rng.uniform(0.2, 0.8)))
        base = World(10, 10, tuple(obstacles))
        extra = World(10, 10, tuple(obstacles) + (
            Rect(rng.uniform(1, 8), rng.uniform(1, 8), 1.0, 1.0),))
        pose = Pose(rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5),
                    rng.uniform(-math.pi, math.pi))
        assert np.all(raycast(extra, pose, spec) <= raycast(base, pose, spec) + 1e-12)


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

def test_kinematics_straight():
    p = step_kinematics(Pose(0, 0, 0), Action(0.5, 0.0), 0.2)
    assert (p.x, p.y, p.heading) == pytest.approx((0.1, 0.0, 0.0))


def test_kinematics_pure_rotation():
    p = step_kinematics(Pose(0, 0, 0), Action(0.0, math.pi / 2), 1.0)
    assert (p.x, p.y, p.heading) == pytest.approx((0.0, 0.0, math.pi / 2))


def euler_rollout(pose: Pose, v: float, w: float, dt: float, substeps: int) -> Pose:
    x, y, h = pose.x, pose.y, pose.heading
    sub = dt / substeps
    for _ in range(substeps):
        x += v * math.cos(h) * sub
        y += v * math.sin(h) * sub
        h += w * sub
    return Pose(x, y, h)


def test_kinematics_arc_against_euler_oracle():
    p = step_kinematics(Pose(0, 0, 0), Action(0.5, 0.5), 1.0)
    assert (p.x, p.y) == pytest.approx((math.sin(0.5), 1 - math.cos(0.5)), abs=1e-12)
    assert p.heading == pytest.approx(0.5)
    ref = euler_rollout(Pose(0, 0, 0), 0.5, 0.5, 1.0, 10_000)
    assert math.hypot(p.x - ref.x, p.y - ref.y) < 1e-3


def test_kinematics_arc_against_euler_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pose = Pose(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3, 3))
        v, w = rng.uniform(-0.5, 0.5), rng.uniform(-1.5, 1.5)
        p = step_kinematics(pose, Action(v, w), 0.2)
        ref = euler_rollout(pose, v, w, 0.2, 10_000)
        assert math.hypot(p.x - ref.x, p.y - ref.y) < 1e-3


def test_kinematics_reversible_straight():
    p0 = Pose(0.3, -0.2, 0.7)
    p1 = step_kinematics(p0, Action(0.4, 0.0), 0.2)
    p2 = step_kinematics(p1, Action(-0.4, 0.0), 0.2)
    assert abs(p2.x - p0.x) < 1e-9 and abs(p2.y - p0.y) < 1e-9


def test_kinematics_rejects_nonfinite():
    with pytest.raises(NumericError):
        step_kinematics(Pose(0, 0, 0), Action(math.nan, 0.0), 0.2)


# ---------------------------------------------------------------------------
# step_env and simulate
# ---------------------------------------------------------------------------

def empty_episode(width=10.0, height=10.0):
    return World(width, height), small_spec(), EpisodeConfig()


def test_step_env_dense_reward():
    """A step that ends nowhere: the dense reward, c1 * (d_t - d_{t+1}),
    is the dataset's (see test_data), read from the goal distance that
    the step's observation reports."""
    world, spec, cfg = empty_episode()
    # moving straight toward a goal 5 m ahead for one step of 0.1 m
    state, terminal, pose = step_env(world, spec, cfg, Pose(2.0, 5.0, 0.0),
                                     (7.0, 5.0), Action(0.5, 0.0), 0)
    assert terminal == NONE
    assert pose.x == pytest.approx(2.1)
    assert state[-4] == pytest.approx(4.9, abs=1e-12)  # goal distance


def test_observe_is_the_scan_then_goal_and_velocities():
    world = World(10, 10, (Circle(6, 5, 1.0),))
    spec, pose = small_spec(), Pose(2.0, 5.0, 0.3)
    row = observe(world, spec, pose, (7.0, 8.0), 0.25, -0.5)
    assert row.dtype == np.float64 and row.shape == (spec.lidar_beams + 4,)
    assert np.array_equal(row[:-4], raycast(world, pose, spec))
    assert row[-4:].tolist() == [*relative_goal(pose, (7.0, 8.0)), 0.25, -0.5]


def test_step_env_success_branch():
    world, spec, cfg = empty_episode()
    _, terminal, _ = step_env(world, spec, cfg, Pose(5.0, 5.0, 0.0),
                              (5.25, 5.0), Action(0.5, 0.0), 0)
    assert terminal == SUCCESS


def test_step_env_collision_branch():
    world = World(10, 10, (Rect(5.25, 4.0, 1.0, 2.0),))
    spec, cfg = small_spec(), EpisodeConfig()
    _, terminal, _ = step_env(world, spec, cfg, Pose(5.0, 5.0, 0.0),
                              (9.0, 5.0), Action(0.5, 0.0), 0)
    assert terminal == COLLISION


def test_step_env_wall_collision():
    world, spec, cfg = empty_episode(4.0, 4.0)
    _, terminal, _ = step_env(world, spec, cfg, Pose(3.75, 2.0, 0.0),
                              (0.5, 3.5), Action(0.5, 0.0), 0)
    assert terminal == COLLISION


def test_a_step_out_of_the_room_is_observed_at_the_clipped_pose():
    # a 0.1 m step exceeds the 0.05 m radius, so the robot can leave the
    # room in one step; the record is the observation at the wall
    world, spec, cfg = World(4.0, 4.0), small_spec(radius=0.05), \
        EpisodeConfig()
    state, terminal, pose = step_env(world, spec, cfg, Pose(0.06, 2.0, math.pi),
                                     (3.0, 2.0), Action(0.5, 0.0), 0)
    assert terminal == COLLISION and pose.x < 0.0
    assert np.array_equal(state, observe(world, spec, Pose(0.0, 2.0, math.pi),
                                         (3.0, 2.0), 0.5, 0.0))



def test_collision_ties_an_obstacle_at_the_radius_but_not_a_wall():
    # every distance below is exact in binary: an obstacle exactly one
    # radius from the chord collides, a wall exactly one radius from the
    # new pose does not
    spec = small_spec(radius=0.25)
    world = World(4.0, 4.0, (Rect(2.0, 1.0, 1.0, 2.0),))
    for x, hit in ((1.75, True), (math.nextafter(1.75, 0.0), False)):
        assert sim._collides(world, spec, Pose(x, 1.5, 0.0),
                             Pose(x, 2.5, 0.0)) is hit
    for x, hit in ((0.25, False), (math.nextafter(0.25, 0.0), True)):
        assert sim._collides(World(4.0, 4.0), spec, Pose(0.5, 2.0, 0.0),
                             Pose(x, 2.0, 0.0)) is hit


def test_step_env_success_beats_collision():
    # goal ring touching a wall: both conditions can hold after one step
    world = World(10, 10, (Rect(5.45, 4.0, 1.0, 2.0),))
    spec, cfg = small_spec(), EpisodeConfig()
    _, terminal, _ = step_env(world, spec, cfg, Pose(5.0, 5.0, 0.0),
                              (5.3, 5.0), Action(0.5, 0.0), 0)
    assert terminal == SUCCESS


def test_step_env_timeout_at_horizon():
    world, spec, cfg = empty_episode()
    _, terminal, _ = step_env(world, spec, cfg, Pose(2.0, 5.0, 0.0),
                              (9.0, 5.0), Action(0.0, 0.0), cfg.t_max - 1)
    assert terminal == TIMEOUT


def test_step_env_clamps_action():
    world, spec, cfg = empty_episode()
    state, _, pose = step_env(world, spec, cfg, Pose(2.0, 5.0, 0.0),
                              (9.0, 5.0), Action(10.0, 0.0), 0)
    assert pose.x == pytest.approx(2.0 + spec.v_max * spec.control_dt)
    assert state[-2] == spec.v_max


def test_engine_protocol():
    """simulate observes the start, then calls act once per step and not
    after the terminal one: a goal 0.35 m ahead is reached in one step."""
    world, spec, cfg = empty_episode()
    calls = []

    def act(state, pose):
        calls.append(state)
        return Action(0.5, 0.0)

    terminal, obs, _ = simulate(world, spec, cfg, Pose(5.0, 5.0, 0.0),
                                (5.35, 5.0), act)
    assert terminal == SUCCESS and len(calls) == 1
    assert obs[0, -4] == pytest.approx(0.35)
    assert obs[1, -4] == pytest.approx(0.25)


def test_run_returns_every_observation_and_pose_since_reset():
    """simulate calls act exactly T times, each time with the latest
    observation and pose, and returns the T+1 observations and poses that
    a hand loop over step_env gives, bit for bit; each observation after
    the first ends with the command clamped."""
    world, spec, cfg = empty_episode()
    cfg, start, goal = EpisodeConfig(t_max=30), Pose(1.0, 1.0, 0.3), (9, 9)
    rng = np.random.default_rng(4)
    limits = np.array([spec.v_max, spec.omega_max])
    seen, commands = [], []

    def act(state, pose):
        seen.append((state, pose))
        commands.append(rng.uniform(-3.0, 3.0, 2) * limits)
        return Action(*commands[-1])

    terminal, obs, poses = simulate(world, spec, cfg, start, goal, act)
    T = len(commands)
    assert obs.shape == (T + 1, spec.lidar_beams + 4)
    assert poses.shape == (T + 1, 3)
    assert poses[0].tolist() == [start.x, start.y, start.heading]
    assert (np.abs(commands) > limits).any()
    assert np.array_equal(obs[1:, -2:], np.clip(commands, -limits, limits))
    pose, state, label = start, observe(world, spec, start, goal), NONE
    assert np.array_equal(obs[0], state)
    for k, command in enumerate(commands):
        assert label == NONE
        assert np.array_equal(seen[k][0], state) and seen[k][1] == pose
        state, label, pose = step_env(world, spec, cfg, pose, goal,
                                      Action(*command), k)
        assert np.array_equal(obs[k + 1], state)
        assert poses[k + 1].tolist() == [pose.x, pose.y, pose.heading]
    assert label == terminal != NONE


def test_engine_reset_validation():
    """A start outside the room or on an obstacle is refused before act
    is ever called."""
    world = World(10, 10, (Circle(5, 5, 1.0),))
    calls = []

    def act(state, pose):
        calls.append(pose)
        return Action(0, 0)

    for start in (Pose(5.0, 5.0, 0.0), Pose(-1.0, 5.0, 0.0)):
        with pytest.raises(InvalidPoseError):
            simulate(world, small_spec(), EpisodeConfig(), start, (1, 1), act)
    assert calls == []


def test_reward_telescoping():
    """The stored dense rewards of one built trajectory sum to
    c1 * (d_0 - d_{T-1}), within float32 rounding, and its last transition
    carries r_success exactly. The task is sampled in an empty room, where
    the clean demonstrator succeeds."""
    world, spec, cfg = empty_episode()
    traj = run_episode(world, spec, cfg, ExpertConfig(noise_prob=0.0),
                       np.random.default_rng(11), 0)
    assert traj.outcome == SUCCESS and len(traj) > 40
    ds = build_dataset([traj], EncoderProfile.from_world_spec(world, spec),
                       cfg)
    rewards = ds.exp.rewards.astype(np.float64)
    d0, dT = traj.obs[0, -4], traj.obs[-2, -4]
    assert rewards[:-1].sum() == pytest.approx(cfg.c1 * (d0 - dT), abs=1e-5)
    assert rewards[-1] == cfg.r_success


def recorded_labels(monkeypatch) -> list[str]:
    """The terminal label of every step_env call simulate makes."""
    labels, step = [], sim.step_env

    def recording(*args):
        result = step(*args)
        labels.append(result[1])
        return result

    monkeypatch.setattr(sim, "step_env", recording)
    return labels


def test_terminal_exclusivity_and_no_post_terminal_steps(monkeypatch):
    """Exactly one step of an episode ends in a terminal label, the last,
    and act is called once per step."""
    world = World(6, 6, (Circle(3, 3, 0.6),))
    spec, cfg = small_spec(), EpisodeConfig(t_max=40)
    rng = np.random.default_rng(5)
    labels = recorded_labels(monkeypatch)
    for ep in range(25):
        start, goal = sample_task(world, rng, spec.radius + 0.05, 2.0)
        labels.clear()
        calls = []

        def act(state, pose):
            calls.append(pose)
            return Action(rng.uniform(-0.5, 0.5), rng.uniform(-1.6, 1.6))

        terminal, obs, _ = simulate(world, spec, cfg, start, goal, act)
        assert terminal in (SUCCESS, COLLISION, TIMEOUT)
        assert labels == [NONE] * (len(labels) - 1) + [terminal]
        assert len(calls) == len(labels) == len(obs) - 1


def test_determinism_bitwise():
    world = World(8, 8, (Rect(3, 3, 1, 1), Circle(6, 2, 0.5)))
    spec, cfg = small_spec(), EpisodeConfig(t_max=50)

    def run():
        rng = np.random.default_rng(42)
        terminal, obs, poses = simulate(
            world, spec, cfg, Pose(1.0, 1.0, 0.5), (7.0, 7.0),
            lambda state, pose: Action(rng.uniform(0, 0.5),
                                       rng.uniform(-1, 1)))
        return terminal, obs.tobytes(), poses.tobytes()

    assert run() == run()


# ---------------------------------------------------------------------------
# world files
# ---------------------------------------------------------------------------

def room(obstacles: str = "", head: str = "width = 10.0\nheight = 10.0\n"
         ) -> str:
    """A world file's text: ``head``, then ``obstacles``' entries."""
    return f"[world]\n{head}obstacles = [{obstacles}]\n"


def test_world_file_roundtrip(tmp_path):
    world = World(10, 8, (Rect(1, 2, 0.5, 3), Circle(5, 5, 0.4)), name="demo")
    path = tmp_path / "demo.world"
    text = format_world(world)
    path.write_text(text)
    loaded = load_world(str(path))
    assert loaded == world
    assert format_world(loaded) == text
    assert text == ('[world]\nname = "demo"\nwidth = 10.0\nheight = 8.0\n'
                    'obstacles = [\n    ["rect", 1.0, 2.0, 0.5, 3.0],\n'
                    '    ["circle", 5.0, 5.0, 0.4],\n]\n')


@pytest.mark.parametrize("name", ["cluttered", "sparse", "dense"])
def test_a_bundled_world_file_is_what_format_world_writes(name):
    ref = resources.files("fanav").joinpath("worlds", f"{name}.world")
    text = ref.read_text(encoding="utf-8")
    world = parse_world(text, source=str(ref))
    assert world.name == name
    assert format_world(world) == text


def test_world_file_errors():
    with pytest.raises(WorldFormatError, match="world.width is missing"):
        parse_world(room(head="height = 5.0\n"))
    with pytest.raises(WorldFormatError, match="unknown key"):
        parse_world(room(head="width = 5.0\nheight = 5.0\ndepth = 1.0\n"))
    with pytest.raises(WorldFormatError, match="not one \\[world\\]"):
        parse_world(room() + "[robot]\nradius = 0.2\n")
    with pytest.raises(WorldFormatError, match="not one \\[world\\]"):
        parse_world("")
    with pytest.raises(WorldFormatError, match=r"obstacles\[1\] must be 4 "):
        parse_world(room('["circle", 1, 1, 0.5], ["rect", 1, 1, 1]'))
    with pytest.raises(WorldFormatError, match=r"obstacles\[0\] must be \["):
        parse_world(room('["triangle", 1, 2, 3]'))
    with pytest.raises(WorldFormatError, match="Cannot overwrite a value"):
        parse_world(room(head="width = 5.0\nwidth = 4.0\nheight = 5.0\n"))


# ids name each case in the line form world files had before TOML
@pytest.mark.parametrize("text, message", [
    pytest.param(room(head='name = "a b"\nwidth = 5.0\nheight = 5.0\n'),
                 "t.world: world name 'a b' names files: it must be "
                 "printable, without whitespace, / or \\, and not empty, . or "
                 "..",
                 id="name a b\nbounds 5 5\n-t.world:1: name takes exactly one "
                    "identifier"),
    pytest.param(room(head="width = 5.0\n"), "t.world: world.height is "
                 "missing", id="bounds 5\n-t.world:1: bounds takes width and "
                               "height"),
    pytest.param(room('["rect", 1, 1, 0, 1]'),
                 "t.world: obstacle 0 has a size not above 0",
                 id="bounds 5 5\nrect 1 1 0 1\n-t.world:2: rect size must be "
                    "positive"),
    pytest.param(room('["circle", 1, 1]'), "t.world: world.obstacles[0] must "
                 "be 3 finite numbers, got [1, 1]",
                 id="bounds 5 5\ncircle 1 1\n-t.world:2: circle takes cx cy "
                    "r"),
    pytest.param(room('["circle", 1, 1, 0]'),
                 "t.world: obstacle 0 has a size not above 0",
                 id="bounds 5 5\ncircle 1 1 0\n-t.world:2: circle radius must "
                    "be positive"),
    pytest.param(room(head="width = -5.0\nheight = 5.0\n"),
                 "t.world: world bounds must be strictly positive",
                 id="bounds -5 5\n-t.world: world bounds must be strictly "
                    "positive")])
def test_world_file_refuses_each_malformed_line(text, message):
    with pytest.raises(WorldFormatError) as exc:
        parse_world(text, source="t.world")
    assert str(exc.value) == message


def test_world_file_without_a_name_takes_its_stem():
    assert parse_world(room(), source="/x/room.world").name == "room"
    assert parse_world(room()).name == "world"


@pytest.mark.parametrize("text, entry", [
    pytest.param(room(head="width = inf\nheight = 10.0\n"), "world bounds",
                 id="bounds inf 10\n-1"),
    pytest.param(room(head="width = 10.0\nheight = 1e999\n"), "world bounds",
                 id="bounds 10 1e999\n-1"),
    pytest.param(room(head="width = nan\nheight = 10.0\n"), "world bounds",
                 id="bounds nan 10\n-1"),
    pytest.param(room('["rect", 1, 1, inf, 1]'), r"world.obstacles\[0\]",
                 id="bounds 10 10\nrect 1 1 inf 1\n-2"),
    pytest.param(room('["rect", nan, 1, 1, 1]'), r"world.obstacles\[0\]",
                 id="bounds 10 10\nrect nan 1 1 1\n-2"),
    pytest.param(room('["circle", 5, 5, inf]'), r"world.obstacles\[0\]",
                 id="bounds 10 10\ncircle 5 5 inf\n-2"),
    pytest.param(room('["circle", 5, -inf, 1]'), r"world.obstacles\[0\]",
                 id="bounds 10 10\ncircle 5 -inf 1\n-2")])
def test_world_file_refuses_non_finite_values(text, entry):
    with pytest.raises(WorldFormatError,
                       match=rf"^room\.world: {entry} must be \S*\s?finite"):
        parse_world(text, source="room.world")


@pytest.mark.parametrize("value", ["true", '"3"', "[1.0]", "1" + "0" * 400])
def test_world_file_refuses_a_number_of_another_type(value):
    # an int becomes a float, but a bool, a string, a list or an int past
    # the largest float is refused, naming the entry
    for text in (room(head=f"width = {value}\nheight = 10.0\n"),
                 room(f'["circle", 5, 5, {value}]')):
        with pytest.raises(WorldFormatError) as exc:
            parse_world(text, source="w.world")
        assert str(exc.value).startswith("w.world: ")
        assert ("world.width" in str(exc.value)
                or "world.obstacles[0]" in str(exc.value))


@pytest.mark.parametrize("text", [
    "name cluttered\nbounds 10 10\ncircle 5 5 0.5\n",
    "# a room\nbounds 10 10\nrect 1 1 2 2\n"])
def test_a_world_file_in_the_line_form_points_to_the_toml_form(text):
    with pytest.raises(WorldFormatError) as exc:
        parse_world(text, source="old.world")
    assert str(exc.value).startswith("old.world: ")
    assert "(at line " in str(exc.value)
    assert str(exc.value).endswith("a world file is TOML, as README shows")


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "a\\b",
                                  "a b", "a\tb", "a\x00b", "a\u2028b"])
def test_a_world_name_that_is_no_file_name_is_refused(name):
    with pytest.raises(ConfigError, match="names files"):
        World(5.0, 5.0, name=name)
    text = room(head=f"name = {format_value(name)}\nwidth = 5.0\n"
                     "height = 5.0\n")
    with pytest.raises(WorldFormatError, match="^w.world: world name"):
        parse_world(text, source="w.world")


def test_world_refuses_an_obstacle_of_no_size():
    # so a world built in code saves to a file its reader takes back
    for ob in (Rect(3.0, 1.0, -1.0, 1.0), Rect(1.0, 1.0, 1.0, 0.0),
               Circle(5.0, 5.0, -0.5)):
        with pytest.raises(ConfigError, match="obstacle 0 has a size not "):
            World(10.0, 10.0, (ob,))


def test_world_refuses_non_finite_values():
    for width, height in ((math.inf, 10.0), (10.0, math.nan)):
        with pytest.raises(ConfigError, match="finite"):
            World(width, height)
    for ob in (Rect(1.0, 1.0, math.inf, 1.0), Rect(1.0, math.nan, 1.0, 1.0),
               Circle(5.0, 5.0, math.inf), Circle(math.nan, 5.0, 1.0)):
        with pytest.raises(ConfigError, match="obstacle 0 has a non-finite"):
            World(10.0, 10.0, (ob,))


def test_world_file_comments_and_name():
    w = parse_world('# room\n[world]\nname = "foo"\nwidth = 5  # size\n'
                    'height = 5\nobstacles = [\n  ["circle", 2, 2, 0.3],  '
                    '# a post\n]\n')
    assert w.name == "foo"
    assert len(w.obstacles) == 1
    # an int is a float
    assert (w.width, w.obstacles[0]) == (5.0, Circle(2.0, 2.0, 0.3))
    assert type(w.width) is float and type(w.obstacles[0].cx) is float
