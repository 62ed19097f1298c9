// Columnar record-batch coverage: arena allocation, day-run splitting,
// the exact SIMD predicate kernels, the column DSP functions against the
// brute-force oracles of tests/row_oracles.hpp, and the whole pipeline
// against those oracles on the edge cases the mission simulator never
// produces on its own — an empty badge-day, a single-record day, records
// straddling midnight, NaN features and a badge with no records.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "beacon/beacon.hpp"
#include "core/analysis.hpp"
#include "core/record_batch.hpp"
#include "dsp/speech.hpp"
#include "dsp/walking.hpp"
#include "habitat/habitat.hpp"
#include "locate/room_classifier.hpp"
#include "row_oracles.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/units.hpp"

namespace hs::core {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// --- ColumnArena -----------------------------------------------------------

TEST(ColumnArena, AlignsEveryAllocation) {
  ColumnArena arena(256);
  for (int i = 0; i < 20; ++i) {
    const auto* p = arena.alloc<float>(static_cast<std::size_t>(i * 3 + 1));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % ColumnArena::kAlignment, 0u);
  }
}

TEST(ColumnArena, EmptyAllocationIsNonNull) {
  ColumnArena arena;
  EXPECT_NE(arena.alloc<double>(0), nullptr);
  EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(ColumnArena, AccountsUsedAndReservedAcrossSlabGrowth) {
  ColumnArena arena(/*initial_bytes=*/128);
  // Each alloc rounds up to the 64-byte alignment quantum.
  (void)arena.alloc<double>(8);  // 64 bytes
  EXPECT_EQ(arena.bytes_used(), 64u);
  (void)arena.alloc<float>(100);  // 448 bytes -> forces a larger slab
  EXPECT_EQ(arena.bytes_used(), 64u + 448u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
  // Old slabs stay alive: the first pointer must still be dereferenceable,
  // which ASan would catch if the slab were freed on growth.
  const auto* p = arena.alloc<std::int8_t>(1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % ColumnArena::kAlignment, 0u);
}

// --- day_runs --------------------------------------------------------------

TEST(DayRuns, EmptyColumn) { EXPECT_TRUE(day_runs(nullptr, 0).empty()); }

TEST(DayRuns, SingleRecord) {
  const double t = to_seconds(day_start(3) + hours(5));
  const auto runs = day_runs(&t, 1);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (DayRun{3, 0, 1}));
}

TEST(DayRuns, SplitsExactlyAtMidnight) {
  // Two records just before midnight of day 2, one exactly on the
  // boundary (belongs to day 3), one after.
  const std::vector<double> t = {
      to_seconds(day_start(3) - seconds(2)),
      to_seconds(day_start(3)) - 1e-7,  // sub-microsecond before midnight
      to_seconds(day_start(3)),         // first instant of day 3
      to_seconds(day_start(3) + seconds(1)),
  };
  const auto runs = day_runs(t.data(), t.size());
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], (DayRun{2, 0, 2}));
  EXPECT_EQ(runs[1], (DayRun{3, 2, 4}));
  // Boundary classification must equal mission_day of the microsecond
  // instant, the expression the attribute stage relies on.
  for (std::size_t i = 0; i < t.size(); ++i) {
    const int expected = mission_day(static_cast<SimTime>(t[i] * 1e6));
    const auto& run = i < 2 ? runs[0] : runs[1];
    EXPECT_EQ(run.day, expected) << "record " << i;
  }
}

TEST(DayRuns, NegativeTimestampsUseTruncatingFallback) {
  // A badly-fit clock can rectify to before mission start; the truncating
  // cast maps [-kDay, 0) to day 1 and [0, kDay) also to day 1.
  const std::vector<double> t = {-5.0, -1.0, 1.0};
  const auto runs = day_runs(t.data(), t.size());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (DayRun{1, 0, 3}));
}

TEST(DayRuns, UnsortedInputYieldsExtraRunsNeverWrongDays) {
  const std::vector<double> t = {
      to_seconds(day_start(2) + hours(1)),
      to_seconds(day_start(4) + hours(1)),  // forward jump
      to_seconds(day_start(2) + hours(2)),  // backward jump
  };
  const auto runs = day_runs(t.data(), t.size());
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (DayRun{2, 0, 1}));
  EXPECT_EQ(runs[1], (DayRun{4, 1, 2}));
  EXPECT_EQ(runs[2], (DayRun{2, 2, 3}));
}

// --- SIMD kernels ----------------------------------------------------------

std::size_t scalar_count_band_ge(const std::vector<float>& x, const std::vector<float>& y,
                                 double xlo, double xhi, double ymin) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (static_cast<double>(x[i]) >= xlo && static_cast<double>(x[i]) <= xhi &&
        static_cast<double>(y[i]) >= ymin) {
      ++count;
    }
  }
  return count;
}

TEST(SimdKernels, CountBandGeMatchesScalarOnEdgeValues) {
  // Threshold 0.9 is not exactly representable: 0.9f and the double 0.9
  // round differently, so a kernel comparing in float would misclassify
  // 0.9f. The edge set pins the widen-before-compare rule.
  std::vector<float> x = {0.9F, 0.89999997F, 3.2F, 3.2000002F, kNaN, kInf, -kInf, 0.0F, 1.5F};
  std::vector<float> y = {1.2F, 5.0F, 1.2F, 1.2F, 1.2F, 1.2F, 1.2F, kNaN, 1.19999998F};
  // Pad through several vector widths to exercise both lanes and tail.
  while (x.size() < 23) {
    x.push_back(x[x.size() % 9]);
    y.push_back(y[y.size() % 9]);
  }
  for (std::size_t n = 0; n <= x.size(); ++n) {
    const std::vector<float> xs(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n));
    const std::vector<float> ys(y.begin(), y.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(util::simd::count_band_ge(xs.data(), ys.data(), n, 0.9, 3.2, 1.2),
              scalar_count_band_ge(xs, ys, 0.9, 3.2, 1.2))
        << "n=" << n;
  }
}

TEST(SimdKernels, CountBandGeMatchesScalarOnRandomData) {
  Rng rng(7);
  std::vector<float> x;
  std::vector<float> y;
  for (int i = 0; i < 1000; ++i) {
    x.push_back(rng.bernoulli(0.05) ? kNaN : static_cast<float>(rng.uniform(0.0, 4.0)));
    y.push_back(rng.bernoulli(0.05) ? kNaN : static_cast<float>(rng.uniform(0.0, 3.0)));
  }
  EXPECT_EQ(util::simd::count_band_ge(x.data(), y.data(), x.size(), 0.9, 3.2, 1.2),
            scalar_count_band_ge(x, y, 0.9, 3.2, 1.2));
}

TEST(SimdKernels, MaskGe2MatchesScalar) {
  std::vector<float> a = {60.0F, 59.999996F, 60.000004F, kNaN, kInf, -kInf, 0.0F};
  std::vector<float> b = {0.25F, 0.25F, 0.24999999F, 0.25F, kNaN, 0.25F, 1.0F};
  Rng rng(42);
  while (a.size() < 100) {
    a.push_back(static_cast<float>(rng.uniform(40.0, 80.0)));
    b.push_back(static_cast<float>(rng.uniform(0.0, 1.0)));
  }
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
                        std::size_t{7}, a.size()}) {
    std::vector<std::uint8_t> out(n + 1, 0xAB);
    util::simd::mask_ge2(a.data(), b.data(), n, 60.0, 0.25, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t want =
          (static_cast<double>(a[i]) >= 60.0 && static_cast<double>(b[i]) >= 0.25) ? 1 : 0;
      EXPECT_EQ(out[i], want) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(out[n], 0xAB) << "kernel wrote past n=" << n;
  }
}

// --- column DSP against brute-force oracles --------------------------------
//
// tests/row_oracles.hpp restates each rule from scratch over row structs;
// the randomized streams sweep several seeds and carry NaN features,
// unknown beacon ids, RSSI ties, coverage gaps and the empty/one-record
// edges.

TEST(ColumnarDsp, WalkingCountMatchesOracle) {
  const dsp::WalkingDetector d;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    std::vector<float> step;
    std::vector<float> var;
    // Values on and around the band edges, then random ones with NaN.
    for (const float s : {0.9F, 0.89999997F, 3.2F, 3.2000002F, kNaN, kInf, 1.5F}) {
      for (const float v : {1.2F, 1.19999998F, kNaN, 0.0F, 2.0F}) {
        step.push_back(s);
        var.push_back(v);
      }
    }
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 900));
    for (std::size_t i = 0; i < n; ++i) {
      step.push_back(rng.bernoulli(0.1) ? kNaN : static_cast<float>(rng.uniform(0.0, 4.0)));
      var.push_back(rng.bernoulli(0.1) ? kNaN : static_cast<float>(rng.uniform(0.0, 3.0)));
    }
    for (const std::size_t len : {std::size_t{0}, std::size_t{1}, step.size()}) {
      EXPECT_EQ(d.count_walking(step.data(), var.data(), len),
                oracle::count_walking(step.data(), var.data(), len))
          << "seed " << seed << " n=" << len;
    }
  }
}

TEST(ColumnarDsp, SpeechAnalyzeMatchesOracle) {
  const dsp::SpeechDetector d;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    std::vector<oracle::AudioRow> frames;
    double t = 1000.0 + rng.uniform(0.0, 20.0);
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 800));
    for (std::size_t i = 0; i < n; ++i) {
      oracle::AudioRow a;
      a.t_s = t;
      a.level_db = rng.bernoulli(0.05) ? kNaN : static_cast<float>(rng.uniform(50.0, 75.0));
      a.voiced_fraction = rng.bernoulli(0.05) ? kNaN : static_cast<float>(rng.uniform(0.0, 1.0));
      a.f0_hz = rng.bernoulli(0.5) ? static_cast<float>(rng.uniform(90.0, 260.0))
                                   : (rng.bernoulli(0.5) ? 0.0F : kNaN);
      frames.push_back(a);
      // 1 Hz frames with jitter; now and then the badge goes quiet for a
      // while, leaving whole intervals without frames.
      t += rng.bernoulli(0.02) ? rng.uniform(20.0, 120.0) : 1.0 + rng.uniform(0.0, 0.4);
    }
    const double t0 = rng.uniform(0.0, 15.0);
    const oracle::AudioCols cols(frames);
    EXPECT_EQ(d.analyze(cols.t.data(), cols.level.data(), cols.voiced.data(), cols.f0.data(),
                        cols.t.size(), t0),
              oracle::speech(frames, t0))
        << "seed " << seed;
  }
  // Exact thresholds: 3 of 15 frames voiced at exactly 60 dB / 0.25 is
  // speech; one float step below either threshold is not.
  for (const float level : {60.0F, 59.999996F}) {
    for (const float voiced : {0.25F, 0.24999999F}) {
      std::vector<oracle::AudioRow> frames;
      for (int i = 0; i < 15; ++i) {
        frames.push_back(oracle::AudioRow{static_cast<double>(i), i < 3 ? level : 30.0F,
                                          i < 3 ? voiced : 0.0F, 120.0F});
      }
      const oracle::AudioCols cols(frames);
      EXPECT_EQ(d.analyze(cols.t.data(), cols.level.data(), cols.voiced.data(), cols.f0.data(),
                          cols.t.size(), 0.0),
                oracle::speech(frames, 0.0))
          << level << " dB, voiced " << voiced;
    }
  }
}

TEST(ColumnarDsp, RoomClassifyMatchesOracle) {
  const auto hab = habitat::Habitat::lunares();
  const auto beacons = beacon::deploy_lunares_beacons(hab);
  const locate::RoomClassifier classifier(beacons);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<oracle::ObsRow> rows;
    double t = 2000.0 + rng.uniform(0.0, 5.0);
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 600));
    for (std::size_t i = 0; i < n; ++i) {
      oracle::ObsRow o;
      o.t_s = t;
      // Mostly surveyed beacons, sometimes an id past the survey.
      o.beacon = rng.bernoulli(0.05)
                     ? static_cast<io::BeaconId>(200)
                     : static_cast<io::BeaconId>(rng.uniform_int(
                           0, static_cast<std::int64_t>(beacons.size()) - 1));
      // Coarse RSSI steps make ties within a bin common.
      o.rssi_dbm = -40 - 5 * static_cast<int>(rng.uniform_int(0, 11));
      rows.push_back(o);
      // Several beacons per scan (same stamp), sub-second steps, and
      // gaps both under and over the 5 s carry.
      const double u = rng.uniform();
      t += u < 0.4 ? 0.0 : u < 0.9 ? rng.uniform(0.1, 1.5) : rng.uniform(3.0, 30.0);
    }
    const oracle::ObsCols cols(rows);
    EXPECT_EQ(classifier.classify(cols.t.data(), cols.beacon.data(), cols.rssi.data(),
                                  cols.t.size()),
              oracle::classify(rows, beacons))
        << "seed " << seed;
  }
  // A NaN timestamp is dropped rather than looped on, at the start of the
  // stream and inside a bin.
  const std::vector<oracle::ObsRow> nan_rows = {
      {std::numeric_limits<double>::quiet_NaN(), beacons[0].id, -50},
      {10.0, beacons[0].id, -50},
      {10.5, beacons[1].id, -45},
      {std::numeric_limits<double>::quiet_NaN(), beacons[2].id, -40},
      {11.2, beacons[2].id, -60},
  };
  const oracle::ObsCols nan_cols(nan_rows);
  EXPECT_EQ(classifier.classify(nan_cols.t.data(), nan_cols.beacon.data(), nan_cols.rssi.data(),
                                nan_cols.t.size()),
            oracle::classify(nan_rows, beacons));
}

// --- RecordBatch::build ----------------------------------------------------

TEST(RecordBatchBuild, EmptyCardYieldsEmptyColumns) {
  badge::SdCard card;
  ColumnArena arena;
  const timesync::ClockFit fit;
  const auto batch = RecordBatch::build(3, card, fit, {}, arena);
  EXPECT_EQ(batch.badge, 3);
  EXPECT_EQ(batch.total_records(), 0u);
  EXPECT_TRUE(batch.obs.days.empty());
  EXPECT_TRUE(batch.audio.days.empty());
  EXPECT_TRUE(batch.motion.days.empty());
}

TEST(RecordBatchBuild, AppliesRectifyAndWornFilterExactly) {
  badge::SdCard card;
  // Local stamps in ms; the fit shifts by +500 ms and stretches by 1.001.
  timesync::ClockFit fit;
  fit.offset_ms = 500.0;
  fit.rate = 1.001;
  for (std::uint32_t k = 0; k < 50; ++k) {
    io::MotionFrame m;
    m.t = 1000 * k;
    m.accel_var = static_cast<float>(k);
    m.step_freq_hz = 1.5F;
    card.log(m);
  }
  // Worn only for rectified seconds [10, 20) and [30, 35).
  const std::vector<std::pair<double, double>> worn = {{10.0, 20.0}, {30.0, 35.0}};
  ColumnArena arena;
  const auto batch = RecordBatch::build(0, card, fit, worn, arena);
  // Reference: rectify + worn filter restated over the same records.
  std::vector<double> want_t;
  std::vector<float> want_var;
  IntervalCursor cursor(worn);
  for (const auto& m : card.motion()) {
    const double t = fit.rectify(m.t) / 1000.0;
    if (!cursor.contains(t)) continue;
    want_t.push_back(t);
    want_var.push_back(m.accel_var);
  }
  ASSERT_EQ(batch.motion.size, want_t.size());
  ASSERT_GT(batch.motion.size, 0u);
  for (std::size_t i = 0; i < batch.motion.size; ++i) {
    EXPECT_EQ(batch.motion.t_s[i], want_t[i]) << i;  // bit-identical, not approx
    EXPECT_EQ(batch.motion.accel_var[i], want_var[i]) << i;
  }
  EXPECT_EQ(batch.obs.size, 0u);
  EXPECT_EQ(batch.audio.size, 0u);
}

TEST(RecordBatchBuild, DayRunsCoverStraddlingStreams) {
  badge::SdCard card;
  const timesync::ClockFit fit;  // identity
  // Audio frames every hour from day 2 20:00 through day 3 04:00 —
  // straddles midnight.
  const SimTime start = day_start(2) + hours(20);
  for (int k = 0; k < 9; ++k) {
    io::AudioFrame a;
    a.t = static_cast<io::LocalMs>((start + hours(k)) / kMillisecond);
    a.level_db = 65.0F;
    a.voiced_fraction = 0.5F;
    card.log(a);
  }
  const std::vector<std::pair<double, double>> worn = {{0.0, 1e12}};
  ColumnArena arena;
  const auto batch = RecordBatch::build(0, card, fit, worn, arena);
  ASSERT_EQ(batch.audio.size, 9u);
  ASSERT_EQ(batch.audio.days.size(), 2u);
  EXPECT_EQ(batch.audio.days[0], (DayRun{2, 0, 4}));
  EXPECT_EQ(batch.audio.days[1], (DayRun{3, 4, 9}));
}

// --- the pipeline on edge-case datasets, against the oracles ---------------

/// Hand-built dataset exercising what the simulator never emits: astronaut
/// 0 has a day with zero records between two populated days, astronaut 1
/// has a single-record day, astronaut 2's worn window straddles midnight,
/// astronaut 3 carries NaN features, astronaut 4 has one dense day (>600
/// motion frames, so Fig. 4 computes a value), astronaut 5 logs nothing at
/// all. Days 2..4 keep it fast.
Dataset make_edge_dataset() {
  Dataset data;
  data.habitat = habitat::Habitat::lunares();
  data.beacons = beacon::deploy_lunares_beacons(data.habitat);
  data.script = crew::MissionScript{};
  data.script.mission_days = 4;

  const auto worn_window = [](core::BadgeLog& log, int day, int on_h, int off_h) {
    const auto on = static_cast<io::LocalMs>((day_start(day) + hours(on_h)) / kMillisecond);
    const auto off = static_cast<io::LocalMs>((day_start(day) + hours(off_h)) / kMillisecond);
    log.card.log(io::WearEvent{on, log.id, io::WearState::kWorn});
    return std::pair{on, off};
  };
  const auto close_window = [](core::BadgeLog& log, io::LocalMs off) {
    log.card.log(io::WearEvent{off, log.id, io::WearState::kOff});
  };
  const auto motion_at = [](core::BadgeLog& log, io::LocalMs t, float var, float step) {
    io::MotionFrame m;
    m.t = t;
    m.badge = log.id;
    m.accel_var = var;
    m.step_freq_hz = step;
    log.card.log(m);
  };
  const auto audio_at = [](core::BadgeLog& log, io::LocalMs t, float db, float vf, float f0) {
    io::AudioFrame a;
    a.t = t;
    a.badge = log.id;
    a.level_db = db;
    a.voiced_fraction = vf;
    a.dominant_f0_hz = f0;
    log.card.log(a);
  };
  const auto obs_at = [&data](core::BadgeLog& log, io::LocalMs t, std::size_t beacon) {
    io::BeaconObs o;
    o.t = t;
    o.badge = log.id;
    o.beacon = data.beacons[beacon % data.beacons.size()].id;
    o.rssi_dbm = -45;
    log.card.log(o);
  };

  Rng rng(99);
  for (std::size_t b = 0; b < crew::kCrewSize; ++b) {
    core::BadgeLog log;
    log.id = static_cast<io::BadgeId>(b);
    for (int day = 2; day <= 4; ++day) {
      data.ownership.assign(log.id, day, b);
      data.naive_ownership.assign(log.id, day, b);
    }
    switch (b) {
      case 0: {  // empty badge-day: records on days 2 and 4, none on 3
        for (int day : {2, 4}) {
          auto [on, off] = worn_window(log, day, 9, 18);
          for (int k = 0; k < 40; ++k) {
            const auto t = static_cast<io::LocalMs>(on + 60000U * static_cast<unsigned>(k));
            motion_at(log, t, static_cast<float>(rng.uniform(0.0, 3.0)), 1.5F);
            audio_at(log, t, 62.0F, 0.5F, 120.0F);
            obs_at(log, t, static_cast<std::size_t>(k % 5));
          }
          close_window(log, off);
        }
        break;
      }
      case 1: {  // single-record day
        auto [on, off] = worn_window(log, 3, 12, 13);
        motion_at(log, on + 1000U, 2.5F, 1.8F);
        close_window(log, off);
        break;
      }
      case 2: {  // worn window straddling midnight of day 3 -> 4
        const auto on = static_cast<io::LocalMs>((day_start(3) + hours(22)) / kMillisecond);
        const auto off = static_cast<io::LocalMs>((day_start(4) + hours(2)) / kMillisecond);
        log.card.log(io::WearEvent{on, log.id, io::WearState::kWorn});
        for (int k = 0; k < 240; ++k) {
          const auto t = static_cast<io::LocalMs>(on + 60000U * static_cast<unsigned>(k));
          motion_at(log, t, 2.0F, rng.bernoulli(0.5) ? 1.6F : 0.0F);
          audio_at(log, t, static_cast<float>(rng.uniform(50.0, 75.0)),
                   static_cast<float>(rng.uniform(0.0, 1.0)), 200.0F);
          obs_at(log, t, static_cast<std::size_t>(k % 7));
        }
        close_window(log, off);
        break;
      }
      case 3: {  // NaN features sprinkled through a normal day
        auto [on, off] = worn_window(log, 2, 8, 20);
        for (int k = 0; k < 300; ++k) {
          const auto t = static_cast<io::LocalMs>(on + 30000U * static_cast<unsigned>(k));
          motion_at(log, t, rng.bernoulli(0.2) ? kNaN : 2.2F,
                    rng.bernoulli(0.2) ? kNaN : 1.7F);
          audio_at(log, t, rng.bernoulli(0.2) ? kNaN : 66.0F,
                   rng.bernoulli(0.2) ? kNaN : 0.6F, 110.0F);
          obs_at(log, t, static_cast<std::size_t>(k % 3));
        }
        close_window(log, off);
        break;
      }
      case 4: {  // dense day: enough motion frames for Fig. 4 (>= 600)
        auto [on, off] = worn_window(log, 3, 8, 20);
        for (int k = 0; k < 800; ++k) {
          const auto t = static_cast<io::LocalMs>(on + 20000U * static_cast<unsigned>(k));
          motion_at(log, t, static_cast<float>(rng.uniform(0.5, 3.0)),
                    rng.bernoulli(0.4) ? static_cast<float>(rng.uniform(0.9, 3.2)) : 0.0F);
          audio_at(log, t, static_cast<float>(rng.uniform(55.0, 70.0)),
                   static_cast<float>(rng.uniform(0.0, 1.0)), 130.0F);
          obs_at(log, t, static_cast<std::size_t>(k % 9));
        }
        close_window(log, off);
        break;
      }
      default: break;  // astronaut 5: badge never produced a record
    }
    data.total_bytes += static_cast<std::int64_t>(log.card.record_count()) * 16;
    data.logs.push_back(std::move(log));
  }
  return data;
}

/// Every record of badge `b` (one badge per astronaut, owned on every
/// day, every record inside a worn window, identity clock fit), in card
/// order, on the rectified timeline.
struct BadgeRows {
  std::vector<oracle::ObsRow> obs;
  std::vector<oracle::AudioRow> audio;
  std::vector<float> motion_step;
  std::vector<float> motion_var;
  std::vector<double> motion_t;
};

BadgeRows badge_rows(const BadgeLog& log) {
  BadgeRows rows;
  for (const auto& o : log.card.beacon_obs()) {
    rows.obs.push_back(oracle::ObsRow{static_cast<double>(o.t) / 1000.0, o.beacon, o.rssi_dbm});
  }
  for (const auto& a : log.card.audio()) {
    rows.audio.push_back(oracle::AudioRow{static_cast<double>(a.t) / 1000.0, a.level_db,
                                          a.voiced_fraction, a.dominant_f0_hz});
  }
  for (const auto& m : log.card.motion()) {
    rows.motion_t.push_back(static_cast<double>(m.t) / 1000.0);
    rows.motion_step.push_back(m.step_freq_hz);
    rows.motion_var.push_back(m.accel_var);
  }
  return rows;
}

/// Tracks, speech intervals, Fig. 4, Fig. 6 and Table I's talking and
/// walking columns of `pipeline` against the oracles run on the raw rows.
void expect_matches_oracles(const Dataset& data, const AnalysisPipeline& pipeline) {
  const int first = data.first_day();
  const auto days = static_cast<std::size_t>(data.last_day() - first + 1);
  std::vector<std::array<double, crew::kCrewSize>> fig4(days);
  std::vector<std::array<double, crew::kCrewSize>> fig6(days);
  for (auto& row : fig4) row.fill(-1.0);
  for (auto& row : fig6) row.fill(-1.0);
  std::array<double, crew::kCrewSize> talking{};
  std::array<double, crew::kCrewSize> walking{};
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    const BadgeRows rows = badge_rows(data.logs[i]);
    EXPECT_EQ(pipeline.track(i), oracle::classify(rows.obs, data.beacons)) << "astronaut " << i;
    const auto speech = oracle::speech(rows.audio, 0.0);
    EXPECT_EQ(pipeline.speech_intervals(i), speech) << "astronaut " << i;

    // Fig. 4: walking fraction per day with >= 600 frames (10 min).
    std::map<int, std::pair<std::size_t, std::size_t>> by_day;  // day -> (walking, total)
    for (std::size_t k = 0; k < rows.motion_t.size(); ++k) {
      auto& [walk, total] = by_day[oracle::day_of(rows.motion_t[k])];
      ++total;
      if (oracle::walking(rows.motion_step[k], rows.motion_var[k])) ++walk;
    }
    for (const auto& [day, counts] : by_day) {
      if (day < first || day > data.last_day() || counts.second < 600) continue;
      fig4[static_cast<std::size_t>(day - first)][i] =
          static_cast<double>(counts.first) / static_cast<double>(counts.second);
    }
    // Fig. 6: speech fraction per day with >= 40 intervals (10 min).
    std::map<int, std::pair<std::size_t, std::size_t>> speech_by_day;
    for (const auto& iv : speech) {
      auto& [talk, total] = speech_by_day[oracle::day_of(iv.start_s)];
      ++total;
      if (iv.speech) ++talk;
    }
    for (const auto& [day, counts] : speech_by_day) {
      if (day < first || day > data.last_day() || counts.second < 40) continue;
      fig6[static_cast<std::size_t>(day - first)][i] =
          static_cast<double>(counts.first) / static_cast<double>(counts.second);
    }

    std::size_t talk = 0;
    for (const auto& iv : speech) talk += iv.speech ? 1 : 0;
    talking[i] = speech.empty() ? 0.0 : static_cast<double>(talk) / static_cast<double>(speech.size());
    const std::size_t walk = oracle::count_walking(rows.motion_step.data(),
                                                   rows.motion_var.data(), rows.motion_t.size());
    walking[i] = rows.motion_t.empty()
                     ? 0.0
                     : static_cast<double>(walk) / static_cast<double>(rows.motion_t.size());
  }
  EXPECT_EQ(pipeline.fig4_walking().values, fig4);
  EXPECT_EQ(pipeline.fig6_speech().values, fig6);

  // Table I reports talking and walking as shares of the crew maximum.
  const auto table = pipeline.table1();
  ASSERT_EQ(table.size(), crew::kCrewSize);
  const double max_talking = *std::max_element(talking.begin(), talking.end());
  const double max_walking = *std::max_element(walking.begin(), walking.end());
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    EXPECT_EQ(table[i].talking, max_talking > 0.0 ? talking[i] / max_talking : talking[i])
        << "astronaut " << i;
    EXPECT_EQ(table[i].walking, max_walking > 0.0 ? walking[i] / max_walking : walking[i])
        << "astronaut " << i;
  }
}

// The oracles recompute every artifact row by row from the badge logs, so they are the
// row-wise reference the columnar pipeline must match bit for bit.
TEST(ColumnarPipeline, EdgeCaseDatasetMatchesRowWiseBitIdentically) {
  const Dataset data = make_edge_dataset();
  PipelineOptions opts;
  opts.threads = 1;
  const AnalysisPipeline pipeline(data, opts);
  expect_matches_oracles(data, pipeline);
  // Sanity: the edge cases actually exist in the dataset.
  EXPECT_FALSE(pipeline.track(0).empty());  // astronaut 0 has populated days
  EXPECT_TRUE(pipeline.track(5).empty());   // astronaut 5 logged nothing
  EXPECT_GE(pipeline.fig4_walking().values[1][4], 0.0);  // the dense day has a Fig. 4 value
}

TEST(ColumnarPipeline, ColumnarParallelMatchesRowWiseSerial) {
  const Dataset data = make_edge_dataset();
  PipelineOptions opts;
  opts.threads = 4;
  const AnalysisPipeline pipeline(data, opts);
  expect_matches_oracles(data, pipeline);
}

}  // namespace
}  // namespace hs::core
