import pytest

from fanav import lanes


@pytest.fixture
def set_lanes(monkeypatch):
    """Set the lane count :mod:`fanav.lanes` runs jobs on, whatever the
    cores."""
    def set_to(n):
        monkeypatch.setattr(lanes, "lane_count", lambda: n)
    return set_to
