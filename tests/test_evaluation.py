import hashlib
import math
import re
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from fanav import evaluation
from fanav.errors import (ConfigError, InvalidPoseError, NoPathError,
                          ProtocolError, ShapeError)
from fanav.data import EncoderProfile
from fanav.geometry import Circle, Rect
from fanav.nets import GaussianPolicyHead, Mlp
from fanav.sim import (
    COLLISION,
    SUCCESS,
    TIMEOUT,
    Action,
    EpisodeConfig,
    Pose,
    RobotSpec,
    World,
    format_world,
)
from fanav.evaluation import (
    EvalResult,
    NetworkPolicy,
    Task,
    TaskSuite,
    compare,
    evaluate_suite,
    export_trajectories,
    load_eval_result,
    load_suite,
    make_suite,
    render_overlay_svg,
    rollout,
    save_eval_result,
    save_suite,
)

from baselines import ExpertPilot, ZeroPolicy

SPEC = RobotSpec(lidar_beams=24)
EPISODE = EpisodeConfig()
WORLD = World(8, 8, (Circle(4, 4, 0.8), Rect(1.5, 5.5, 1.0, 1.0)), name="w8")
PROFILE = EncoderProfile.from_world_spec(WORLD, SPEC)


def make_net_policy(seed=0) -> NetworkPolicy:
    rng = np.random.default_rng(seed)
    mean = Mlp.initialized((PROFILE.dim, 16, 2), "relu", rng, final_scale=1e-2)
    head = GaussianPolicyHead(mean, PROFILE.action_scale,
                              np.full(2, -0.5, mean.dtype))
    return NetworkPolicy(head, PROFILE, name="random-net")


class StraightPolicy:
    name = "straight"

    def reset(self, world, spec, task):
        pass

    def act(self, state, pose):
        return Action(0.5, 0.0)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_make_suite_properties():
    suite = make_suite(WORLD, SPEC, EPISODE, 12, seed=3)
    assert len(suite) == 12
    for t in suite.tasks:
        assert WORLD.clearance(t.sx, t.sy) >= SPEC.radius
        assert WORLD.clearance(t.gx, t.gy) >= SPEC.radius
        assert math.hypot(t.gx - t.sx, t.gy - t.sy) >= 3.0
    # deterministic for a seed
    again = make_suite(WORLD, SPEC, EPISODE, 12, seed=3)
    assert suite.digest == again.digest
    other = make_suite(WORLD, SPEC, EPISODE, 12, seed=4)
    assert suite.digest != other.digest


def test_make_suite_drops_only_planner_failures(monkeypatch):
    starts = []

    def first_unplannable(world, start, goal, radius):
        starts.append(start)
        if len(starts) == 1:
            raise NoPathError("no path between start and goal")
        return [start, goal]

    monkeypatch.setattr(evaluation, "plan_path", first_unplannable)
    suite = make_suite(WORLD, SPEC, EPISODE, 3, seed=3)
    assert len(suite) == 3 and len(starts) == 4
    assert (suite.tasks[0].sx, suite.tasks[0].sy) == starts[1]

    def broken(world, start, goal, radius):
        raise RuntimeError("planner bug")

    # any other error is a bug, not an infeasible task
    monkeypatch.setattr(evaluation, "plan_path", broken)
    with pytest.raises(RuntimeError, match="planner bug"):
        make_suite(WORLD, SPEC, EPISODE, 3, seed=3)


def test_make_suite_gives_up_when_no_far_pair_is_connected():
    # a wall splits the room into halves whose free points lie under 4 m
    # apart, so every pair 4 m apart straddles the wall
    split = World(6, 2, (Rect(2.9, 0.0, 0.2, 2.0),), name="split")
    with pytest.raises(ConfigError,
                       match="could not sample enough feasible tasks"):
        make_suite(split, SPEC, EPISODE, 2, seed=0, min_separation=4.0)


def test_suite_roundtrip(tmp_path):
    episode = EpisodeConfig(t_max=120, goal_radius=0.25)
    suite = make_suite(WORLD, SPEC, episode, 6, seed=1)
    path = str(tmp_path / "tasks.suite")
    save_suite(suite, path)
    text = Path(path).read_text()
    assert text.startswith(f'[suite]\nworld = "w8"\nradius = {SPEC.radius!r}'
                           "\ntasks = [\n    [")
    assert text.endswith("]\n\n[episode]\nt_max = 120\nr_success = 20.0\n"
                         "r_collision = -20.0\nc1 = 2.0\ngoal_radius = 0.25\n")
    loaded = load_suite(path)
    assert loaded.digest == suite.digest
    assert (loaded.world_name, loaded.radius) == ("w8", SPEC.radius)
    assert len(loaded) == 6
    # the suite is its file: its text, episode included, and that text's
    # SHA-256 as its digest
    assert loaded.episode == episode
    assert loaded.text() == text
    assert loaded.digest == hashlib.sha256(text.encode()).hexdigest()
    # each task to the micrometre and microradian: six decimals
    for task, back in zip(suite.tasks, loaded.tasks):
        assert astuple(back) == tuple(float(f"{v:.6f}") for v in astuple(task))


def test_a_suite_digest_covers_every_line():
    suite = make_suite(WORLD, SPEC, EPISODE, 2, seed=1)
    others = [TaskSuite("w9", suite.radius, suite.tasks, EPISODE),
              TaskSuite(WORLD.name, 0.25, suite.tasks, EPISODE),
              TaskSuite(WORLD.name, suite.radius, suite.tasks,
                        EpisodeConfig(t_max=40)),
              TaskSuite(WORLD.name, suite.radius, suite.tasks,
                        EpisodeConfig(goal_radius=0.5)),
              TaskSuite(WORLD.name, suite.radius, suite.tasks[:1], EPISODE)]
    digests = {suite.digest, *(o.digest for o in others)}
    assert len(digests) == 1 + len(others)


def suite_text(tasks: str = "[1, 1, 0, 5, 5]", radius: str = "0.2",
               episode: str = "t_max = 200\n") -> str:
    return (f'[suite]\nworld = "w"\nradius = {radius}\ntasks = [{tasks}]\n\n'
            f"[episode]\n{episode}")


def test_suite_load_errors(tmp_path):
    p = tmp_path / "bad.suite"
    p.write_text(suite_text("[1, 2, 3]"))
    with pytest.raises(ConfigError, match=re.escape(
            f"{p}: suite.tasks[0] must be 5 finite numbers")):
        load_suite(str(p))
    p2 = tmp_path / "empty.suite"
    p2.write_text(suite_text(""))
    with pytest.raises(ConfigError, match="empty"):
        load_suite(str(p2))
    p2.write_text("# nothing\n")
    with pytest.raises(ConfigError, match="not \\[suite\\] and \\[episode\\]"):
        load_suite(str(p2))
    p3 = tmp_path / "nan.suite"
    for task in ("[1, 1, 0, nan, 5]", "[inf, 1, 0, 5, 5]",
                 "[1, 1, 1e999, 5, 5]"):
        p3.write_text(suite_text(f"[1, 1, 0, 5, 5], {task}"))
        with pytest.raises(ConfigError, match=re.escape(
                f"{p3}: suite.tasks[1] must be 5 finite numbers, got ")):
            load_suite(str(p3))
    # the radius is a robot's
    for radius in ("nan", "-0.2"):
        p3.write_text(suite_text(radius=radius))
        with pytest.raises(ConfigError, match=re.escape(
                f"{p3}: robot.radius must be > 0, got ")):
            load_suite(str(p3))
    # the suite holds its world, radius, tasks and episode, nothing else
    for text, message in (
            (suite_text().replace('world = "w"\n', ""),
             "suite.world is missing"),
            (suite_text().replace("radius = 0.2\n", ""),
             "suite.radius is missing"),
            (suite_text().replace("world", "room", 1),
             "suite.room is an unknown key"),
            (suite_text().replace('"w"', "8"), "config suite.world = 8 does "
                                               "not have the type"),
            (suite_text().split("\n[episode]")[0],
             "sections ['suite'], not [suite] and [episode]"),
            (suite_text() + "[robot]\nradius = 0.2\n",
             "sections ['episode', 'robot', 'suite'], not [suite] and "
             "[episode]")):
        p3.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{p3}: {message}")):
            load_suite(str(p3))


def test_a_suite_in_the_line_form_is_refused_to_be_re_created(tmp_path):
    p = tmp_path / "old.suite"
    p.write_text("world w\nradius 0.2\nepisode t_max=200\ntask 1 1 0 5 5\n")
    with pytest.raises(ConfigError) as exc:
        load_suite(str(p))
    message = str(exc.value)
    assert message.startswith(f"{p}: ") and "(at line 1, column " in message
    assert message.endswith("re-create it")


# ids name each case in the line form suites had before TOML
@pytest.mark.parametrize("episode, message", [
    pytest.param("t_max = 200.5", "config episode.t_max = 200.5 does not have "
                 "the type of its default 200",
                 id="episode t_max=200.5-config episode.t_max = 200.5 does "
                    "not have the type of its default 200"),
    pytest.param("t_max = true", "config episode.t_max = True does not have "
                 "the type of its default 200",
                 id="episode t_max=true-config episode.t_max = True does not "
                    "have the type of its default 200"),
    pytest.param("speed = 1.0", "unknown config key episode.speed",
                 id="episode speed=1.0-unknown config key episode.speed"),
    pytest.param("t_max = 0", "episode.t_max must be >= 1, got 0",
                 id="episode t_max=0-episode.t_max must be >= 1, got 0"),
    pytest.param("c1 = inf", "episode.c1 must be finite, got inf",
                 id="episode c1=inf-episode.c1 must be finite, got inf"),
    pytest.param("t_max = 1\nt_max = 2",
                 "Cannot overwrite a value (at line 8, column 10)",
                 id="episode t_max=1 t_max=2-Duplicate inline table key "
                    "'t_max'"),
    pytest.param("t_max", "Expected '=' after a key in a key/value pair (at "
                 "line 7, column 6)",
                 id="episode t_max-Expected '=' after a key"),
])
def test_a_malformed_episode_line_names_its_file_and_line(episode, message,
                                                          tmp_path):
    p = tmp_path / "bad.suite"
    p.write_text(suite_text(episode=episode + "\n"))
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{p}: {message}')}"):
        load_suite(str(p))


def test_an_episode_line_takes_defaults_for_the_keys_it_omits(tmp_path):
    p = tmp_path / "short.suite"
    p.write_text(suite_text(episode="t_max = 40\n"))
    suite = load_suite(str(p))
    assert suite.episode == EpisodeConfig(t_max=40)
    assert suite.text().endswith(
        "[episode]\nt_max = 40\nr_success = 20.0\nr_collision = -20.0\n"
        "c1 = 2.0\ngoal_radius = 0.3\n")


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------

def test_zero_policy_times_out_at_horizon():
    task = Task(1.0, 1.0, 0.0, 7.0, 7.0)
    outcome, traj = rollout(ZeroPolicy(), WORLD, SPEC, EPISODE, task)
    assert outcome == TIMEOUT
    assert traj.shape == (EPISODE.t_max + 1, 6)
    assert np.allclose(traj[:, 1], 1.0)  # never moved


def test_expert_pilot_succeeds_in_open_world():
    world = World(8, 8, name="open")
    task = Task(1.0, 1.0, 0.3, 6.5, 6.5)
    outcome, traj = rollout(ExpertPilot(), world, SPEC, EPISODE, task)
    assert outcome == SUCCESS
    assert traj[-1, 0] < EPISODE.t_max


def test_straight_policy_crashes_into_wall():
    task = Task(1.0, 4.0, 0.0, 7.0, 4.0)  # circle obstacle dead ahead
    outcome, _ = rollout(StraightPolicy(), WORLD, SPEC, EPISODE, task)
    assert outcome == COLLISION


def test_network_policy_runs_and_validates_shape():
    policy = make_net_policy()
    task = Task(1.0, 1.0, 0.0, 7.0, 7.0)
    outcome, traj = rollout(policy, WORLD, SPEC, EPISODE, task)
    assert outcome in (SUCCESS, COLLISION, TIMEOUT)
    # beam-count mismatch is a shape error at construction
    bad_profile = EncoderProfile(RobotSpec(lidar_beams=32), 11.3)
    with pytest.raises(ShapeError, match="mismatch|features"):
        NetworkPolicy(policy.head, bad_profile)


# ---------------------------------------------------------------------------
# suite evaluation
# ---------------------------------------------------------------------------

def test_rates_counting_and_identity():
    suite = make_suite(WORLD, SPEC, EPISODE, 10, seed=7)
    res = evaluate_suite(ZeroPolicy(), WORLD, SPEC, suite, n_trials=3, seed=1)
    assert res.tr == 100.0 and res.sr == 0.0 and res.cr == 0.0
    assert res.sr + res.cr + res.tr == 100.0
    assert len(res.outcomes[0]) == 10 and len(res.outcomes) == 3
    assert len(res.outcomes) == 3
    assert res.tr_std == 0.0


def test_rates_match_hand_count():
    # 47 success, 2 collision, 1 timeout over 50 tasks, then 45, 4, 1
    outcomes = [[SUCCESS] * 47 + [COLLISION] * 2 + [TIMEOUT],
                [TIMEOUT] + [COLLISION] * 4 + [SUCCESS] * 45]
    res = EvalResult("w", "d", "m", outcomes)
    assert (len(res.outcomes), len(res.outcomes[0])) == (2, 50)
    assert res.sr_trials == [94.0, 90.0]
    assert res.cr_trials == [4.0, 8.0]
    assert res.tr_trials == [2.0, 2.0]
    assert res.sr == 92.0 and res.sr_std == 2.0
    assert res.cr == 6.0 and res.cr_std == 2.0
    assert res.tr == 2.0 and res.tr_std == 0.0
    assert res.sr + res.cr + res.tr == 100.0


def test_timeout_rate_is_zero_when_nothing_timed_out():
    # TR is counted, not left over from 100 - SR - CR: for every split of
    # n <= 60 tasks into successes and collisions, each trial's TR and
    # their mean over all the splits of n as trials are exactly 0
    for n in range(1, 61):
        rows = [[SUCCESS] * k + [COLLISION] * (n - k) for k in range(n + 1)]
        for row in rows:
            assert EvalResult("w", "d", "m", [row]).tr_trials == [0.0], row
        res = EvalResult("w", "d", "m", rows)
        assert res.tr_trials == [0.0] * (n + 1) and res.tr == 0.0, n
        assert res.tr_std == 0.0, n


def test_suite_fixedness_same_checkpoint_same_result():
    suite = make_suite(WORLD, SPEC, EPISODE, 8, seed=9)
    policy = make_net_policy(3)
    a = evaluate_suite(policy, WORLD, SPEC, suite, n_trials=2, seed=5)
    b = evaluate_suite(policy, WORLD, SPEC, suite, n_trials=2, seed=5)
    assert a.outcomes == b.outcomes
    assert a.sr_trials == b.sr_trials
    assert a.suite_digest == b.suite_digest


def test_jitter_respects_clearance():
    suite = make_suite(WORLD, SPEC, EPISODE, 8, seed=11)
    res = evaluate_suite(ExpertPilot(), WORLD, SPEC, suite, n_trials=3,
                         seed=2, jitter=(0.1, 0.1))
    # all rollouts started legally (no instant collisions from jitter)
    assert all(o in (SUCCESS, COLLISION, TIMEOUT)
               for row in res.outcomes for o in row)


def test_zero_jitter_starts_each_task_at_its_stored_pose():
    class StartRecorder(StraightPolicy):
        def __init__(self):
            self.starts = []

        def reset(self, world, spec, task):
            self.starts.append((task.sx, task.sy, task.sheading))

    suite = make_suite(WORLD, SPEC, EPISODE, 6, seed=11)
    policy = StartRecorder()
    evaluate_suite(policy, WORLD, SPEC, suite, n_trials=2, seed=2,
                   jitter=(0.0, 0.0))
    stored = [(t.sx, t.sy, t.sheading) for t in suite.tasks]
    assert policy.starts == stored * 2


def test_a_start_that_fails_every_jitter_draw_is_kept_as_stored():
    # at zero jitter each of the 50 draws is the stored start, which fails
    # the draw's clearance check when it lies in [radius, radius + 0.01)
    room = World(4, 4, (), name="room")
    task = Task(SPEC.radius + 0.005, 2.0, 0.3, 3.0, 2.0)
    assert room.clearance(task.sx, task.sy) < SPEC.radius + 0.01
    assert evaluation._jittered_start(room, SPEC, task, 0, 0, 0,
                                      (0.0, 0.0)) == task.start


def test_a_task_the_room_does_not_admit_is_refused_before_any_rollout():
    class StartRecorder(StraightPolicy):
        def __init__(self):
            self.starts = []

        def reset(self, world, spec, task):
            self.starts.append(task.start)

    suite = make_suite(WORLD, SPEC, EPISODE, 4, seed=7)
    last = suite.tasks[3]
    # WORLD's circle has its centre at (4, 4); a wall is 0.1 m from x = 0.1
    for moved, end in (({"gx": 4.0, "gy": 4.0}, "goal (4.0, 4.0)"),
                       ({"sx": 0.1}, f"start (0.1, {last.sy})")):
        suite.tasks[3] = replace(last, **moved)
        policy = StartRecorder()
        with pytest.raises(InvalidPoseError, match=re.escape(
                f"suite.tasks[3] {end} is within a robot radius")):
            evaluate_suite(policy, WORLD, SPEC, suite)
        assert policy.starts == []


def test_eval_result_json_roundtrip(tmp_path):
    suite = make_suite(WORLD, SPEC, EPISODE, 5, seed=13)
    res = evaluate_suite(ZeroPolicy(), WORLD, SPEC, suite, n_trials=2, seed=0)
    path = str(tmp_path / "result.json")
    save_eval_result(res, path)
    loaded = load_eval_result(path)
    assert loaded.sr == res.sr and loaded.tr == res.tr
    assert loaded == replace(res, trajectories=[])
    assert (loaded.world_digest, loaded.seed, loaded.jitter_pos,
            loaded.jitter_heading) == (hashlib.sha256(format_world(
                WORLD).encode()).hexdigest(), 0, 0.1, 0.1)


def test_world_name_mismatch_rejected():
    suite = make_suite(WORLD, SPEC, EPISODE, 4, seed=15)
    other = World(8, 8, name="other")
    with pytest.raises(ProtocolError, match="world"):
        evaluate_suite(ZeroPolicy(), other, SPEC, suite)
    # tasks sampled with clearance for one robot radius fit no other
    with pytest.raises(ProtocolError, match="robot radius 0.2, got 0.35"):
        evaluate_suite(ZeroPolicy(), WORLD, RobotSpec(radius=0.35), suite)


@pytest.mark.parametrize("bad", [-0.1, float("nan")])
def test_negative_jitter_or_separation_rejected(bad):
    # numpy's uniform(-j, j) raises its own ValueError for j < 0
    suite = make_suite(WORLD, SPEC, EPISODE, 2, seed=15)
    for jitter in ((bad, 0.1), (0.1, bad)):
        with pytest.raises(ConfigError, match="jitter"):
            evaluate_suite(ZeroPolicy(), WORLD, SPEC, suite, jitter=jitter)
    with pytest.raises(ConfigError, match="min_separation"):
        make_suite(WORLD, SPEC, EPISODE, 2, seed=15, min_separation=bad)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_csv_and_svg(tmp_path):
    suite = make_suite(WORLD, SPEC, EPISODE, 6, seed=17)
    res = evaluate_suite(ExpertPilot(), WORLD, SPEC, suite, n_trials=1, seed=3)
    out = tmp_path / "traj"
    written = export_trajectories(res, suite, WORLD, str(out))
    csvs = [p for p in written if p.endswith(".csv")]
    assert len(csvs) == 6
    first = Path(csvs[0]).read_text().splitlines()
    assert first[0] == "t,x,y,heading,v,omega"
    assert len(first) == len(res.trajectories[0]) + 1
    svg = (out / "overlay.svg").read_text()
    # one crash cross per collision task, one triangle per timeout
    n_cross = svg.count('stroke="#d62718"')
    n_collisions = res.outcomes[0].count(COLLISION)
    assert n_cross >= n_collisions
    # re-export is byte identical
    res2 = evaluate_suite(ExpertPilot(), WORLD, SPEC, suite, n_trials=1, seed=3)
    assert render_overlay_svg(res2, suite, WORLD) == svg


def test_nothing_to_evaluate_or_export_is_refused(tmp_path):
    empty = TaskSuite(WORLD.name, SPEC.radius, [], EPISODE)
    with pytest.raises(ConfigError, match="^empty task suite$"):
        evaluate_suite(ZeroPolicy(), WORLD, SPEC, empty)
    res = EvalResult(WORLD.name, empty.digest, "m", [[TIMEOUT]])
    out = tmp_path / "traj"
    with pytest.raises(ConfigError,
                       match="^result carries no trajectories to export$"):
        export_trajectories(res, empty, WORLD, str(out))
    assert not out.exists()


def test_svg_marker_counts():
    suite = make_suite(WORLD, SPEC, EPISODE, 5, seed=19)
    res = evaluate_suite(ZeroPolicy(), WORLD, SPEC, suite, n_trials=1, seed=0)
    svg = render_overlay_svg(res, suite, WORLD)
    # every task times out: one triangle marker each
    assert svg.count("Z\" fill=\"#d62718\"") == 5
    assert svg.count('fill="#3b6fd4"') == 5   # starts
    assert svg.count('fill="#e8c02c"') == 5   # goals


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def fake_result(method, world, digest, sr, cr):
    """3 trials of 50 tasks whose outcome counts give ``sr`` and ``cr``."""
    n_s, n_c = round(sr / 2), round(cr / 2)
    assert (2 * n_s, 2 * n_c) == (sr, cr), "50 tasks give even rates only"
    row = [SUCCESS] * n_s + [COLLISION] * n_c + [TIMEOUT] * (50 - n_s - n_c)
    return EvalResult(world, digest, method, [row] * 3)


def test_compare_overall_mean():
    results = {
        "iql_ca": [fake_result("iql_ca", "w1", "d1", 94.0, 4.0),
                   fake_result("iql_ca", "w2", "d2", 88.0, 2.0),
                   fake_result("iql_ca", "w3", "d3", 74.0, 26.0)],
    }
    rows, csv_text, text = compare(results)
    overall = [r for r in rows if r["world"] == "overall"][0]
    assert overall["sr"] == pytest.approx((94.0 + 88.0 + 74.0) / 3, abs=1e-12)
    assert f"{overall['sr']:.2f}" == "85.33"
    assert overall["cr"] == pytest.approx((4.0 + 2.0 + 26.0) / 3, abs=1e-12)
    assert "overall" in csv_text and "iql_ca" in text


def test_compare_single_method_table():
    results = {"bc": [fake_result("bc", "w1", "d1", 90.0, 6.0)]}
    rows, csv_text, text = compare(results)
    assert len(rows) == 2  # world + overall
    assert csv_text.splitlines()[0].startswith("method,world")
    assert len(text.splitlines()) == 2  # header + one method row


def test_compare_rejects_suite_mismatch():
    results = {
        "bc": [fake_result("bc", "w1", "d1", 90.0, 6.0)],
        "iql_ca": [fake_result("iql_ca", "w1", "OTHER", 92.0, 4.0)],
    }
    with pytest.raises(ProtocolError, match="different task suite"):
        compare(results)
    results2 = {
        "bc": [fake_result("bc", "w1", "d1", 90.0, 6.0)],
        "iql_ca": [fake_result("iql_ca", "wX", "d1", 92.0, 4.0)],
    }
    with pytest.raises(ProtocolError, match="different worlds"):
        compare(results2)
    # one world twice would count twice in the overall row
    twice = [fake_result("bc", "w1", "d1", 90.0, 6.0)] * 2
    with pytest.raises(ProtocolError, match="appears twice"):
        compare({"bc": twice})


def test_compare_refuses_a_method_without_results():
    with pytest.raises(ConfigError, match="^no results to compare$"):
        compare({})
    # averaging no worlds gave nan rows, on which a pipeline with no
    # evaluation world exited 0
    with pytest.raises(ConfigError, match="'bc' has no results"):
        compare({"bc": []})
    with pytest.raises(ConfigError, match="'iql_ca' has no results"):
        compare({"bc": [fake_result("bc", "w1", "d1", 90.0, 6.0)],
                 "iql_ca": []})


def test_compare_rates_partition():
    rows, _, _ = compare({"m": [fake_result("m", "w1", "d", 94.0, 4.0),
                                fake_result("m", "w2", "d2", 88.0, 8.0)]})
    for r in rows:
        assert r["sr"] + r["cr"] + r["tr"] == pytest.approx(100.0, abs=1e-9)
