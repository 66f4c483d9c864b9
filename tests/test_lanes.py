import os
import subprocess
import sys
import time

import pytest

from fanav import lanes
from fanav.errors import NumericError
from fanav.lanes import run_lanes


LANE_COUNT = lanes.lane_count


@pytest.fixture(autouse=True)
def two_lanes(set_lanes):
    """Two lanes, whatever the cores: a child runs even on one core."""
    set_lanes(2)


@pytest.fixture
def set_cores(monkeypatch):
    """Set the core count that the lane count follows."""
    monkeypatch.setattr(lanes, "lane_count", LANE_COUNT)
    return lambda n: monkeypatch.setattr(lanes, "available_cores", lambda: n)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_pid(path):
    """Write this process's pid to ``path`` whole, by rename."""
    with open(f"{path}.tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(f"{path}.tmp", path)


def index_and_pid(i):
    return lambda: (i, os.getpid())


def raise_numeric(message):
    def job():
        raise NumericError(message)
    return job


class TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its message alone."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def test_one_lane_runs_in_process(set_cores, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    set_cores(1)  # one core is one lane
    assert lanes.lane_count() == 1
    out = run_lanes([index_and_pid(i) for i in range(3)])
    assert out == [(i, os.getpid()) for i in range(3)]
    set_cores(4)
    assert run_lanes([]) == []


def test_two_cores_run_three_lanes(set_cores):
    set_cores(2)
    assert lanes.lane_count() == 3
    # the pipeline's four methods: bc and iql_so train in the caller, which
    # the traced benchmark needs, and iql_dm and iql_ca in a child each
    out = run_lanes([index_and_pid(i) for i in range(4)])
    assert [i for i, _ in out] == list(range(4))
    pids = [pid for _, pid in out]
    assert pids[:2] == [os.getpid()] * 2
    assert len({os.getpid(), pids[2], pids[3]}) == 3
    assert_no_child_left()


def test_contiguous_chunks_with_the_caller_as_lane_0(set_lanes):
    set_lanes(3)
    out = run_lanes([index_and_pid(i) for i in range(5)])
    assert [i for i, _ in out] == list(range(5))
    pids = [pid for _, pid in out]
    # 5 jobs on 3 lanes: ceil bounds 0, 2, 4, 5
    assert pids[:2] == [os.getpid()] * 2
    assert pids[2] == pids[3] and pids[4] not in (os.getpid(), pids[2])
    assert_no_child_left()
    # never more lanes than jobs: one job runs in process
    assert run_lanes([index_and_pid(0)]) == [(0, os.getpid())]


def test_child_error_is_raised_with_its_type_and_message():
    jobs = [index_and_pid(0), index_and_pid(1), raise_numeric("lane 1 blew"),
            index_and_pid(3)]
    with pytest.raises(NumericError, match="lane 1 blew"):
        run_lanes(jobs)
    assert_no_child_left()


def test_first_error_in_job_order_wins():
    jobs = [index_and_pid(0), raise_numeric("job 1"), raise_numeric("job 2"),
            index_and_pid(3)]
    with pytest.raises(NumericError, match="job 1"):
        run_lanes(jobs)
    assert_no_child_left()


def test_unpicklable_error_or_result_comes_back_as_runtime_error():
    def two_arg():
        raise TwoArgError("x", "y")

    with pytest.raises(RuntimeError, match="TwoArgError: x/y"):
        run_lanes([index_and_pid(0), two_arg])
    with pytest.raises(RuntimeError, match="cannot be pickled"):
        run_lanes([index_and_pid(0), lambda: (lambda: None)])
    assert_no_child_left()


def test_lane_that_dies_without_a_result():
    with pytest.raises(RuntimeError, match="ended without a result"):
        run_lanes([index_and_pid(0), lambda: os._exit(3)])
    assert_no_child_left()


def test_interrupt_in_lane_0_kills_and_reaps_the_child(tmp_path):
    pid_file = tmp_path / "child.pid"

    def interrupted():
        deadline = time.monotonic() + 10
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise KeyboardInterrupt

    def sleeper():
        write_pid(pid_file)
        time.sleep(60)

    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_lanes([interrupted, sleeper])
    assert time.monotonic() - t0 < 30
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
    assert_no_child_left()


def gone(pid):
    """True once ``pid`` has exited (a zombie counts: nothing runs)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="PR_SET_PDEATHSIG is Linux's")
def test_child_dies_when_its_parent_is_killed(tmp_path):
    pid_file = tmp_path / "child.pid"
    script = (
        "import os, time\n"
        "from fanav import lanes\n"
        "lanes.lane_count = lambda: 2\n"
        "def child():\n"
        f"    with open({str(pid_file)!r} + '.tmp', 'w') as fh:\n"
        "        fh.write(str(os.getpid()))\n"
        f"    os.replace({str(pid_file)!r} + '.tmp', {str(pid_file)!r})\n"
        "    time.sleep(60)\n"
        "lanes.run_lanes([lambda: time.sleep(60), child])\n")
    src = os.path.dirname(os.path.dirname(lanes.__file__))
    parent = subprocess.Popen([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src))
    try:
        deadline = time.monotonic() + 20
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        parent.kill()  # SIGKILL: no finally runs in the parent
        parent.wait()
    child = int(pid_file.read_text())
    deadline = time.monotonic() + 10
    while not gone(child) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert gone(child)
