#include "core/record_batch.hpp"

#include <algorithm>

namespace hs::core {

std::vector<DayRun> day_runs(const double* t_s, std::size_t n) {
  std::vector<DayRun> runs;
  std::size_t begin = 0;
  while (begin < n) {
    // Classify the run head with mission_day(SimTime(t * 1e6)), then
    // extend while elements stay in [lo, hi)
    // microseconds — for non-negative stamps that interval test equals
    // the truncating-cast classification, so the run boundary lands on
    // the identical record. Runs are maximal *consecutive* same-day
    // stretches: no sortedness assumption, so a backwards step-fit jump
    // just produces an extra run instead of a wrong one.
    const int day = mission_day(static_cast<SimTime>(t_s[begin] * 1e6));
    const double lo = static_cast<double>(day_start(day));
    const double hi = static_cast<double>(day_start(day + 1));
    std::size_t end = begin + 1;
    for (; end < n; ++end) {
      const double us = t_s[end] * 1e6;
      const bool same = us >= 0.0 ? (us >= lo && us < hi)
                                  : mission_day(static_cast<SimTime>(us)) == day;
      if (!same) break;
    }
    runs.push_back(DayRun{day, begin, end});
    begin = end;
  }
  return runs;
}

RecordBatch RecordBatch::build(io::BadgeId badge, const badge::SdCard& card,
                               const timesync::ClockFit& fit,
                               const std::vector<std::pair<double, double>>& worn,
                               ColumnArena& arena) {
  RecordBatch batch;
  batch.badge = badge;

  {
    const auto& src = card.beacon_obs();
    batch.obs.t_s = arena.alloc<double>(src.size());
    batch.obs.beacon = arena.alloc<io::BeaconId>(src.size());
    batch.obs.rssi_dbm = arena.alloc<std::int8_t>(src.size());
    IntervalCursor cursor(worn);
    std::size_t m = 0;
    for (const auto& r : src) {
      const double t = fit.rectify(r.t) / 1000.0;
      if (!cursor.contains(t)) continue;
      batch.obs.t_s[m] = t;
      batch.obs.beacon[m] = r.beacon;
      batch.obs.rssi_dbm[m] = r.rssi_dbm;
      ++m;
    }
    batch.obs.size = m;
    batch.obs.days = day_runs(batch.obs.t_s, m);
  }

  {
    const auto& src = card.audio();
    batch.audio.t_s = arena.alloc<double>(src.size());
    batch.audio.level_db = arena.alloc<float>(src.size());
    batch.audio.voiced_fraction = arena.alloc<float>(src.size());
    batch.audio.f0_hz = arena.alloc<float>(src.size());
    IntervalCursor cursor(worn);
    std::size_t m = 0;
    for (const auto& r : src) {
      const double t = fit.rectify(r.t) / 1000.0;
      if (!cursor.contains(t)) continue;
      batch.audio.t_s[m] = t;
      batch.audio.level_db[m] = r.level_db;
      batch.audio.voiced_fraction[m] = r.voiced_fraction;
      batch.audio.f0_hz[m] = r.dominant_f0_hz;
      ++m;
    }
    batch.audio.size = m;
    batch.audio.days = day_runs(batch.audio.t_s, m);
  }

  {
    const auto& src = card.motion();
    batch.motion.t_s = arena.alloc<double>(src.size());
    batch.motion.accel_var = arena.alloc<float>(src.size());
    batch.motion.step_freq_hz = arena.alloc<float>(src.size());
    IntervalCursor cursor(worn);
    std::size_t m = 0;
    for (const auto& r : src) {
      const double t = fit.rectify(r.t) / 1000.0;
      if (!cursor.contains(t)) continue;
      batch.motion.t_s[m] = t;
      batch.motion.accel_var[m] = r.accel_var;
      batch.motion.step_freq_hz[m] = r.step_freq_hz;
      ++m;
    }
    batch.motion.size = m;
    batch.motion.days = day_runs(batch.motion.t_s, m);
  }

  return batch;
}

namespace {

[[nodiscard]] bool strictly_increasing(const std::vector<double>& t) {
  for (std::size_t k = 1; k < t.size(); ++k) {
    if (!(t[k - 1] < t[k])) return false;
  }
  return true;
}

// Local gather rows: only the field layout matters for the scatter; the
// sort permutation depends solely on the t_s comparison outcomes.
struct ObsRow {
  double t_s;
  io::BeaconId beacon;
  std::int8_t rssi;
};
struct AudioRow {
  double t_s;
  float level_db;
  float voiced;
  float f0;
};
struct MotionRow {
  double t_s;
  float accel_var;
  float step_hz;
};

}  // namespace

void sort_columns(PersonColumns& pc) {
  const auto by_time = [](const auto& a, const auto& b) { return a.t_s < b.t_s; };
  if (!strictly_increasing(pc.obs_t)) {
    std::vector<ObsRow> rows(pc.obs_t.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      rows[k] = ObsRow{pc.obs_t[k], pc.obs_beacon[k], pc.obs_rssi[k]};
    }
    std::sort(rows.begin(), rows.end(), by_time);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      pc.obs_t[k] = rows[k].t_s;
      pc.obs_beacon[k] = rows[k].beacon;
      pc.obs_rssi[k] = rows[k].rssi;
    }
  }
  if (!strictly_increasing(pc.audio_t)) {
    std::vector<AudioRow> rows(pc.audio_t.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      rows[k] = AudioRow{pc.audio_t[k], pc.audio_level_db[k], pc.audio_voiced[k], pc.audio_f0[k]};
    }
    std::sort(rows.begin(), rows.end(), by_time);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      pc.audio_t[k] = rows[k].t_s;
      pc.audio_level_db[k] = rows[k].level_db;
      pc.audio_voiced[k] = rows[k].voiced;
      pc.audio_f0[k] = rows[k].f0;
    }
  }
  if (!strictly_increasing(pc.motion_t)) {
    std::vector<MotionRow> rows(pc.motion_t.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      rows[k] = MotionRow{pc.motion_t[k], pc.motion_accel_var[k], pc.motion_step_hz[k]};
    }
    std::sort(rows.begin(), rows.end(), by_time);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      pc.motion_t[k] = rows[k].t_s;
      pc.motion_accel_var[k] = rows[k].accel_var;
      pc.motion_step_hz[k] = rows[k].step_hz;
    }
  }
}

}  // namespace hs::core
