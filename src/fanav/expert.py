"""Scripted demonstrator: grid planner, pure-pursuit tracking, data collection.

The demonstrator plans a shortcut-smoothed A* path and tracks it with pure
pursuit, its command perturbed by random noise on a share of the steps.
Each variant is one :class:`ExpertConfig`: with its noise off (``CLEAN``)
it reliably reaches the goal; the careful default adds mild noise; the
reckless variant (:data:`HARVEST`) produces genuine collision episodes.
Every finished episode is labeled by its terminal outcome, which is what
partitions the offline dataset downstream.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .configfile import Settings, setting
from .errors import ConfigError, NoPathError
from .geometry import Circle, segment_shape_distance, wrap_angle
from .sim import (
    COLLISION,
    SUCCESS,
    Action,
    EpisodeConfig,
    Pose,
    RobotSpec,
    World,
    sample_task,
    simulate,
)

CLEAN = "clean"
PERTURBED = "perturbed"
MAX_EPISODES = 100_000  # collect_to_ratio gives up after this many episodes
# the reckless variant of the demonstrator that harvests collision episodes:
# thin planning margins, long lookahead and full speed, whose systematic
# corner-cutting produces genuine, state-attributable collisions
HARVEST = {"lookahead": 0.7, "gain_heading": 2.0, "speed_scale": 1.0,
           "noise_std_v": 0.3, "noise_std_omega": 1.0, "noise_prob": 0.15,
           "plan_inflation": 0.0}


class ExpertConfig(Settings, section="expert"):
    """Tuning knobs of the scripted demonstrator.

    The fields describe the careful demonstrator used for success
    demonstrations; mild per-step action noise decorrelates consecutive
    actions so clones cannot latch onto the velocity feedback channels.
    The other variants are these fields with some replaced: the clean
    demonstrator has ``noise_prob`` 0, and the ratio collector fills the
    collision partition with the reckless variant, overridden by
    :data:`HARVEST`.
    """

    lookahead: float = setting(0.45, "> 0")  # meters ahead along the path
    gain_heading: float = setting(3.0, "> 0")  # rad/s per rad of bearing error
    speed_scale: float = setting(0.85, "> 0", "<= 1")  # of v_max when aligned
    noise_std_v: float = setting(0.3, ">= 0")  # m/s
    noise_std_omega: float = setting(1.2, ">= 0")  # rad/s
    noise_prob: float = setting(0.4, ">= 0", "<= 1")  # chance per step
    plan_inflation: float = setting(0.08, ">= 0")  # beyond the robot radius
    min_separation: float = setting(3.0, ">= 0")  # start to goal, sampling


class CollectConfig(Settings, section="collect"):
    """The targets of :func:`collect_to_ratio`; ``ratio_tol`` is how far
    the collision fraction may land from ``target_col_ratio``."""

    min_transitions: int = setting(20000, ">= 1")
    target_col_ratio: float = setting(0.1, ">= 0", "< 1")
    ratio_tol: float = setting(0.01, "> 0")


# ---------------------------------------------------------------------------
# occupancy-grid A* with line-of-sight shortcutting
# ---------------------------------------------------------------------------

GRID_RES = 0.1
# the most cells a planning grid may hold: a 100 m square at GRID_RES
MAX_GRID_CELLS = 1_000_000

_SQRT2 = math.sqrt(2.0)
_MOVES = ((1, 0, 1.0), (-1, 0, 1.0), (0, 1, 1.0), (0, -1, 1.0),
          (1, 1, _SQRT2), (1, -1, _SQRT2), (-1, 1, _SQRT2), (-1, -1, _SQRT2))


def _grid_distances(ob, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    if isinstance(ob, Circle):
        return np.maximum(0.0, np.hypot(gx - ob.cx, gy - ob.cy) - ob.r)
    dx = np.maximum(np.maximum(ob.x - gx, 0.0), gx - ob.x2)
    dy = np.maximum(np.maximum(ob.y - gy, 0.0), gy - ob.y2)
    return np.hypot(dx, dy)


def grid_shape(world: World) -> tuple[int, int]:
    """The cells along x and along y of ``world``'s planning grid; the one
    room-size rule: more than ``MAX_GRID_CELLS`` cells is a ``ConfigError``."""
    nx = max(1, math.floor(world.width / GRID_RES))
    ny = max(1, math.floor(world.height / GRID_RES))
    if nx * ny > MAX_GRID_CELLS:
        raise ConfigError(f"world '{world.name}' is too large to plan in: its "
                          f"planning grid would hold {nx * ny:,} cells, more "
                          f"than {MAX_GRID_CELLS:,}")
    return nx, ny


def occupancy_grid(world: World, inflate: float) -> np.ndarray:
    """Boolean blocked-grid of ``GRID_RES`` cell centers, inflated by
    ``inflate`` meters; built, once :func:`grid_shape` accepts the room,
    once per inflation and kept, read-only, on ``world``."""
    grid = world._grids.get(inflate)
    if grid is not None:
        return grid
    nx, ny = grid_shape(world)
    xs = (np.arange(nx) + 0.5) * GRID_RES
    ys = (np.arange(ny) + 0.5) * GRID_RES
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    blocked = ((gx < inflate) | (gx > world.width - inflate)
               | (gy < inflate) | (gy > world.height - inflate))
    for ob in world.obstacles:
        blocked |= _grid_distances(ob, gx, gy) <= inflate
    blocked.flags.writeable = False
    world._grids[inflate] = blocked
    return blocked


def _cell_of(x: float, y: float, blocked: np.ndarray) -> tuple[int, int]:
    i = min(blocked.shape[0] - 1, max(0, int(x / GRID_RES)))
    j = min(blocked.shape[1] - 1, max(0, int(y / GRID_RES)))
    return i, j


def _nearest_free_cell(blocked: np.ndarray, i: int, j: int
                       ) -> tuple[int, int] | None:
    if not blocked[i, j]:
        return i, j
    for ring in range(1, 6):  # five rings out at most
        for di in range(-ring, ring + 1):
            for dj in range(-ring, ring + 1):
                if max(abs(di), abs(dj)) != ring:
                    continue
                a, b = i + di, j + dj
                if 0 <= a < blocked.shape[0] and 0 <= b < blocked.shape[1] \
                        and not blocked[a, b]:
                    return a, b
    return None


def _astar(blocked: np.ndarray, start: tuple[int, int],
           goal: tuple[int, int]) -> list[tuple[int, int]] | None:
    """8-connected A* with the octile heuristic, without corner cutting.

    Cells are flat indices ``i * ny + j``, which order as the ``(i, j)``
    pairs do, so equal-cost heap entries pop in the same order either way.
    """
    nx, ny = blocked.shape
    occupied = blocked.tobytes()  # one byte per cell, by flat index
    gi, gj = goal
    goal_k = gi * ny + gj
    g = [math.inf] * (nx * ny)
    parent = [-1] * (nx * ny)
    closed = bytearray(nx * ny)
    si, sj = start
    dx, dy = abs(si - gi), abs(sj - gj)
    start_k = si * ny + sj
    g[start_k] = 0.0
    heap = [((dx + dy) + (_SQRT2 - 2.0) * min(dx, dy), start_k)]
    while heap:
        _, cur = heapq.heappop(heap)
        if cur == goal_k:
            path = [cur]
            while parent[cur] >= 0:
                cur = parent[cur]
                path.append(cur)
            return [divmod(k, ny) for k in reversed(path)]
        if closed[cur]:
            continue
        closed[cur] = 1
        ci, cj = divmod(cur, ny)
        g_cur = g[cur]
        for di, dj, cost in _MOVES:
            a, b = ci + di, cj + dj
            if not (0 <= a < nx and 0 <= b < ny):
                continue
            k = a * ny + b
            if occupied[k]:
                continue
            if di and dj and (occupied[cur + di * ny] or occupied[cur + dj]):
                continue  # no corner cutting
            cand = g_cur + cost
            if cand < g[k]:
                g[k] = cand
                parent[k] = cur
                dx, dy = abs(a - gi), abs(b - gj)
                heapq.heappush(
                    heap, (cand + ((dx + dy) + (_SQRT2 - 2.0) * min(dx, dy)), k))
    return None


def _segment_clear(world: World, ax, ay, bx, by, inflate: float) -> bool:
    """Whether segment a-b keeps at least ``inflate`` from every wall and
    more than ``inflate`` from every obstacle; only obstacles
    :meth:`World.near` the segment are tested."""
    x1, x2 = min(ax, bx), max(ax, bx)
    y1, y2 = min(ay, by), max(ay, by)
    if not (inflate <= x1 and x2 <= world.width - inflate
            and inflate <= y1 and y2 <= world.height - inflate):
        return False
    return all(segment_shape_distance(ob, ax, ay, bx, by) > inflate
               for ob in world.near(x1, y1, x2, y2, inflate))


def _shortcut(world: World, pts: list[tuple[float, float]],
              inflate: float) -> list[tuple[float, float]]:
    out = [pts[0]]
    i = 0
    while i < len(pts) - 1:
        j = len(pts) - 1
        while j > i + 1 and not _segment_clear(world, *pts[i], *pts[j], inflate):
            j -= 1
        out.append(pts[j])
        i = j
    return out


def plan_path(world: World, start: tuple[float, float],
              goal: tuple[float, float], robot_radius: float,
              inflation: float = 0.05) -> list[tuple[float, float]]:
    """Collision-free polyline from start to goal, or raise :class:`NoPathError`.

    A straight start-goal segment clear by ``robot_radius + inflation`` is
    returned as is. Otherwise A* runs on a 0.1 m occupancy grid inflated by
    that much, and the grid path is shortcut wherever a straight segment
    keeps 0.9 times that clearance, a little less than the grid's.
    """
    inflate = robot_radius + inflation
    for label, (px, py) in (("start", start), ("goal", goal)):
        if not world.contains(px, py):
            raise ConfigError(f"{label} outside world bounds")
        # endpoints must be legal robot positions; the extra margin is a
        # planning preference, handled by snapping to the nearest free cell
        if world.clearance(px, py) < robot_radius:
            raise ConfigError(f"{label} inside an obstacle at robot radius")

    if _segment_clear(world, start[0], start[1], goal[0], goal[1], inflate):
        return [tuple(map(float, start)), tuple(map(float, goal))]

    blocked = occupancy_grid(world, inflate)
    s = _nearest_free_cell(blocked, *_cell_of(start[0], start[1], blocked))
    t = _nearest_free_cell(blocked, *_cell_of(goal[0], goal[1], blocked))
    if s is None or t is None:
        raise NoPathError("start or goal cell blocked on the planning grid")
    cells = _astar(blocked, s, t)
    if cells is None:
        raise NoPathError("no path between start and goal")
    pts = [tuple(map(float, start))]
    pts += [((i + 0.5) * GRID_RES, (j + 0.5) * GRID_RES) for i, j in cells]
    pts.append(tuple(map(float, goal)))
    return _shortcut(world, pts, inflate * 0.9)


# ---------------------------------------------------------------------------
# pure-pursuit tracking
# ---------------------------------------------------------------------------

def _lookahead_point(path: list[tuple[float, float]], x: float, y: float,
                     lookahead: float) -> tuple[float, float]:
    # closest projection onto the polyline, as arc length
    best_d2 = math.inf
    best_s = 0.0
    s_acc = 0.0
    seg_lens = []
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        vx, vy = bx - ax, by - ay
        L2 = vx * vx + vy * vy
        L = math.sqrt(L2)
        seg_lens.append(L)
        if L2 > 0:
            u = min(1.0, max(0.0, ((x - ax) * vx + (y - ay) * vy) / L2))
        else:
            u = 0.0
        px, py = ax + u * vx, ay + u * vy
        d2 = (x - px) ** 2 + (y - py) ** 2
        if d2 < best_d2:
            best_d2 = d2
            best_s = s_acc + u * L
        s_acc += L
    # walk lookahead meters past the projection
    target_s = best_s + lookahead
    s_acc = 0.0
    for (ax, ay), (bx, by), L in zip(path, path[1:], seg_lens):
        if target_s <= s_acc + L and L > 0:
            u = (target_s - s_acc) / L
            return ax + u * (bx - ax), ay + u * (by - ay)
        s_acc += L
    return path[-1]


def expert_action(pose: Pose, path: list[tuple[float, float]],
                  spec: RobotSpec, cfg: ExpertConfig) -> Action:
    """Pure-pursuit command toward the lookahead point on the path."""
    tx, ty = _lookahead_point(path, pose.x, pose.y, cfg.lookahead)
    phi = wrap_angle(math.atan2(ty - pose.y, tx - pose.x) - pose.heading)
    v = cfg.speed_scale * spec.v_max * max(0.0, math.cos(phi))
    w = min(spec.omega_max, max(-spec.omega_max, cfg.gain_heading * phi))
    return Action(v, w)


# ---------------------------------------------------------------------------
# episode collection
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """One finished episode: its observations (rows of
    :func:`fanav.sim.observe`), whose ``obs[1:, -2:]`` are the clamped (v,
    omega) commands taken, and the outcome label."""

    traj_id: int
    outcome: str         # SUCCESS or COLLISION (timeouts are dropped)
    obs: np.ndarray      # (T+1, beams+4) float64

    def __len__(self) -> int:
        return len(self.obs) - 1


def run_episode(world: World, spec: RobotSpec, episode_cfg: EpisodeConfig,
                expert_cfg: ExpertConfig, rng: np.random.Generator,
                traj_id: int) -> Trajectory | None:
    """Run one demonstrator episode on a task drawn from ``rng``, the
    command pure pursuit; return None on a planning dead end. Each step
    draws one uniform from ``rng`` and, when it is below ``noise_prob``
    (never at 0), adds noise drawn from ``rng``."""
    start, goal = sample_task(world, rng, spec.radius + expert_cfg.plan_inflation
                              + 0.02, expert_cfg.min_separation)
    try:
        path = plan_path(world, (start.x, start.y), goal, spec.radius,
                         expert_cfg.plan_inflation)
    except NoPathError:
        return None

    def act(state: np.ndarray, pose: Pose) -> Action:
        a = expert_action(pose, path, spec, expert_cfg)
        if rng.uniform() < expert_cfg.noise_prob:
            dv, dw = rng.normal(0.0, 1.0, 2)
            a = Action(a.v_cmd + dv * expert_cfg.noise_std_v,
                       a.omega_cmd + dw * expert_cfg.noise_std_omega)
        return a

    outcome, obs, _ = simulate(world, spec, episode_cfg, start, goal, act)
    return Trajectory(traj_id, outcome, obs)


def _episode(world: World, spec: RobotSpec, episode_cfg: EpisodeConfig,
             cfg: ExpertConfig, seed: int,
             ep: int) -> Trajectory | Exception | None:
    """Episode ``ep`` on its own random stream, derived from (seed, ep),
    its error returned rather than raised: an episode run past the stop of
    :func:`collect_to_ratio` fails nothing."""
    try:
        return run_episode(world, spec, episode_cfg, cfg,
                           np.random.default_rng([seed, ep]), ep)
    except Exception as exc:
        return exc


def _build_plan_grids(world: World, spec: RobotSpec,
                      *cfgs: ExpertConfig) -> None:
    """Build each config's planning grid on ``world`` before lanes fork, so
    that every lane inherits it rather than building its own."""
    for cfg in cfgs:
        occupancy_grid(world, spec.radius + cfg.plan_inflation)


def collect(world: World, spec: RobotSpec, episode_cfg: EpisodeConfig,
            expert_cfg: ExpertConfig, n_episodes: int, mode: str,
            seed: int) -> list[Trajectory]:
    """Collect ``n_episodes`` labeled episodes, discarding timeouts: in
    mode ``CLEAN`` from the demonstrator with its noise off, in mode
    ``PERTURBED`` from ``expert_cfg`` as it is.

    Each episode draws from its own random stream derived from (seed,
    episode index), so parallel and serial collection agree exactly: the
    episodes run on the lanes (:func:`fanav.lanes.run_lanes`), which
    inherit the planning grid built here. The first episode's error, in
    episode order, is raised once every episode has run.
    """
    from .lanes import run_lanes
    if mode not in (CLEAN, PERTURBED):
        raise ConfigError(f"unknown collection mode '{mode}'")
    if n_episodes < 1:
        raise ConfigError("n_episodes must be >= 1")
    cfg = replace(expert_cfg, noise_prob=0.0) if mode == CLEAN else expert_cfg
    _build_plan_grids(world, spec, cfg)
    trajs = run_lanes([partial(_episode, world, spec, episode_cfg, cfg, seed,
                               ep) for ep in range(n_episodes)])
    for t in trajs:
        if isinstance(t, Exception):
            raise t
    return [t for t in trajs
            if t is not None and t.outcome in (SUCCESS, COLLISION)]


def collect_to_ratio(world: World, spec: RobotSpec, episode_cfg: EpisodeConfig,
                     expert_cfg: ExpertConfig, min_transitions: int,
                     target_col_ratio: float, seed: int,
                     ratio_tol: float = CollectConfig.ratio_tol
                     ) -> list[Trajectory]:
    """Collect until the dataset holds at least ``min_transitions``
    transitions at the target collision fraction.

    Three phases: the careful demonstrator, ``expert_cfg`` as it is,
    fills the success side; the reckless variant, ``expert_cfg`` with
    :data:`HARVEST`'s values, then runs until enough collision transitions
    exist (its incidental successes are kept too); finally the newest
    trajectories are dropped while that brings the collision fraction
    nearer the target (:func:`_trim_to_ratio`). While that misses
    ``ratio_tol``, one more trajectory of the short side is collected,
    from the variant that fills it, and the trim is tried again. With a
    zero target only the demonstrator with its noise off runs, collision
    trajectories are dropped and nothing is trimmed.

    Each episode draws from its own random stream derived from (seed,
    episode index). A phase runs its next episodes as a batch on the lanes
    (:func:`fanav.lanes.run_lanes`) and consumes the results in episode
    order, exactly as the one-lane loop would: the phase stops at the same
    episode, an episode's error is raised only when it is reached, and the
    batch's episodes past the stop are dropped. So the trajectories do not
    depend on the lane count. A batch holds one episode per lane, or more
    when the phase's missing transitions need more at the rate (kept
    transitions per episode) of the whole collection so far. On one lane a
    batch is one episode, so nothing runs past the stop. The planning
    grids are built before the first batch, so no lane builds its own.
    """
    from .lanes import lane_count, run_lanes
    CollectConfig(min_transitions, target_col_ratio, ratio_tol)  # bound checks
    # the demonstrator variant that fills each side of the dataset
    cfgs = ({SUCCESS: replace(expert_cfg, noise_prob=0.0)}
            if target_col_ratio == 0 else
            {SUCCESS: expert_cfg, COLLISION: replace(expert_cfg, **HARVEST)})
    _build_plan_grids(world, spec, *cfgs.values())
    kept: dict[str, list[Trajectory]] = {SUCCESS: [], COLLISION: []}
    n = {SUCCESS: 0, COLLISION: 0}  # transitions kept per outcome
    ep = 0
    stalled = 0  # consecutive harvest episodes without a collision

    def batch_size(outcome: str, target: int) -> int:
        """One episode per lane, or more if the missing transitions need
        more at the rate kept so far; one on one lane."""
        lanes, kept_so_far = lane_count(), n[SUCCESS] + n[COLLISION]
        if lanes == 1:
            return 1
        need = (-(-(target - n[outcome]) * ep // kept_so_far)
                if kept_so_far else 0)
        return min(max(lanes, need), MAX_EPISODES - ep)

    def fill(outcome: str, target: int) -> None:
        """Run ``cfgs[outcome]``'s episodes until ``target`` ``outcome``
        transitions are kept."""
        nonlocal ep, stalled
        while n[outcome] < target:
            if ep >= MAX_EPISODES:
                raise ConfigError(
                    f"only {n[outcome]}/{target} {outcome} transitions after "
                    f"{MAX_EPISODES} episodes")
            for traj in run_lanes([
                    partial(_episode, world, spec, episode_cfg, cfgs[outcome],
                            seed, i)
                    for i in range(ep, ep + batch_size(outcome, target))]):
                if n[outcome] >= target:
                    break  # past the stop: the one-lane loop never ran it
                if isinstance(traj, Exception):
                    raise traj
                ep += 1
                if outcome == COLLISION:
                    stalled = 0 if (traj is not None
                                    and traj.outcome == COLLISION) \
                        else stalled + 1
                    if stalled >= 500:
                        raise ConfigError(
                            "500 consecutive harvest episodes without a "
                            "collision; lower target_col_ratio")
                if traj is not None and traj.outcome in kept:
                    kept[traj.outcome].append(traj)
                    n[traj.outcome] += len(traj)

    if target_col_ratio == 0:
        fill(SUCCESS, min_transitions)
        return kept[SUCCESS]
    fill(SUCCESS, math.ceil((1.0 - target_col_ratio) * min_transitions))
    fill(COLLISION, math.ceil(target_col_ratio * min_transitions))
    while (trajs := _trim_to_ratio(kept[SUCCESS], kept[COLLISION],
                                   target_col_ratio, ratio_tol,
                                   min_transitions)) is None:
        short = (SUCCESS if n[COLLISION] > target_col_ratio
                 * (n[SUCCESS] + n[COLLISION]) else COLLISION)
        fill(short, n[short] + 1)
    return trajs


def _trim_to_ratio(succ: list[Trajectory], coll: list[Trajectory],
                   target: float, tol: float,
                   min_transitions: int) -> list[Trajectory] | None:
    """The trajectories to keep: at least ``min_transitions`` transitions,
    a collision share within ``tol`` of a non-zero ``target``, and at least
    one success and one collision. The lists are not changed.

    Newest trajectories are dropped one at a time while that improves the
    ratio match, the success side tried first. If the share still misses
    ``tol``, this returns None, and :func:`collect_to_ratio` collects one
    more trajectory of the short side.
    """
    sides = (succ, coll)
    ks = [len(succ), len(coll)]  # kept: the oldest ks[side] of each side
    ns = [sum(len(t) for t in succ), sum(len(t) for t in coll)]

    def miss(ns):
        return abs(ns[1] / (ns[0] + ns[1]) - target)

    while True:
        for side in (0, 1):
            if ks[side] < 2:
                continue
            cand = ns.copy()
            cand[side] -= len(sides[side][ks[side] - 1])
            if sum(cand) >= min_transitions and miss(cand) < miss(ns):
                ns, ks[side] = cand, ks[side] - 1
                break  # restart, the success side first
        else:
            break  # no drop improves the match
    if miss(ns) <= tol:
        return succ[:ks[0]] + coll[:ks[1]]
    return None
