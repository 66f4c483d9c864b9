import pytest

from fanav import lanes


@pytest.fixture
def set_lanes(monkeypatch):
    """Set the lane count: :mod:`fanav.lanes` runs one lane per core it
    counts, so this fixes the count it sees."""
    def set_to(n):
        monkeypatch.setattr(lanes, "available_cores", lambda: n)
    return set_to
