"""Crop-coefficient curve tests."""

import pytest

from paddymoist.crop import KcSchedule, kc_at, kc_table, validate_schedule
from paddymoist.errors import DataFormatError, OutOfSeasonError, ScheduleMismatchError

RICE = KcSchedule()  # 20/30/40/30, 1.05/1.20/0.90


class TestKcAt:

    def test_initial_stage_is_flat(self):
        assert kc_at(RICE, 0) == 1.05
        assert kc_at(RICE, 19) == 1.05

    def test_development_midpoint(self):
        # halfway through the 30-day development stage
        assert kc_at(RICE, 20 + 15) == pytest.approx((1.05 + 1.20) / 2, abs=1e-12)

    def test_mid_season_plateau(self):
        assert kc_at(RICE, 50) == 1.20
        assert kc_at(RICE, 89) == 1.20

    def test_late_stage_ramps_down(self):
        assert kc_at(RICE, 90 + 15) == pytest.approx((1.20 + 0.90) / 2, abs=1e-12)

    def test_season_end_out_of_range(self):
        with pytest.raises(OutOfSeasonError):
            kc_at(RICE, 120)
        with pytest.raises(OutOfSeasonError):
            kc_at(RICE, -1)

    def test_continuous_at_stage_boundaries(self):
        eps = 1e-9
        for boundary in (20, 50, 90):
            left = kc_at(RICE, boundary - eps)
            at = kc_at(RICE, boundary)
            right = kc_at(RICE, boundary + eps)
            assert abs(left - at) < 1e-6
            assert abs(right - at) < 1e-6

    def test_bounded_by_anchor_values(self):
        lo = min(RICE.kc_ini, RICE.kc_mid, RICE.kc_end)
        hi = max(RICE.kc_ini, RICE.kc_mid, RICE.kc_end)
        for dap in range(120):
            assert lo <= kc_at(RICE, dap) <= hi


class TestValidateSchedule:

    def test_matching_season(self):
        validate_schedule(RICE, 120)  # 20+30+40+30

    def test_sum_mismatch(self):
        with pytest.raises(ScheduleMismatchError) as exc:
            validate_schedule(RICE, 117)
        assert "117" in str(exc.value) and "120" in str(exc.value)
        # a misfit is bad data, named by its config key and the season's source
        assert isinstance(exc.value, DataFormatError)
        assert str(exc.value) == ("kc.stage_lengths: 20+30+40+30 = 120 days, but the "
                                  "season has 117")
        with pytest.raises(ScheduleMismatchError, match=r"^period1: f\.csv: kc\.stage_lengths: "):
            validate_schedule(RICE, 117, "period1: f.csv")

    def test_nonpositive_kc(self):
        with pytest.raises(ValueError):
            validate_schedule(KcSchedule(kc_mid=0.0), 120)

    def test_nonpositive_stage_length(self):
        with pytest.raises(ValueError):
            validate_schedule(KcSchedule(len_dev=0), 90)


class TestScheduleChecksItself:

    @pytest.mark.parametrize("kwargs, message", [
        ({"kc_mid": float("nan")}, "kc_mid must be > 0, got nan"),
        ({"kc_ini": -1.0}, "kc_ini must be > 0, got -1.0"),
        ({"kc_end": 0.0}, "kc_end must be > 0, got 0.0"),
        ({"len_ini": 0}, "stage length len_ini must be >= 1, got 0"),
        ({"len_late": -3}, "stage length len_late must be >= 1, got -3"),
    ], ids=["nan-kc", "negative-kc", "zero-kc", "zero-stage", "negative-stage"])
    def test_bad_value_rejected_on_construction(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            KcSchedule(**kwargs)
        assert str(exc.value) == message

    def test_validate_schedule_checks_only_the_season_length(self):
        validate_schedule(KcSchedule(1, 1, 1, 1), 4)
        with pytest.raises(ScheduleMismatchError):
            validate_schedule(KcSchedule(1, 1, 1, 1), 5)


class TestKcTable:

    @pytest.mark.parametrize("schedule", [RICE, KcSchedule(1, 3, 1, 7, 0.4, 1.7, 0.25)])
    def test_one_entry_per_day_equal_to_kc_at(self, schedule):
        table = kc_table(schedule)
        assert len(table) == schedule.total_days
        assert [repr(v) for v in table] == [repr(kc_at(schedule, d))
                                            for d in range(schedule.total_days)]

    def test_cached_per_schedule(self):
        assert kc_table(KcSchedule(len_late=28)) is kc_table(KcSchedule(len_late=28))
