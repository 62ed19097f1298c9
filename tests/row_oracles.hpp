// Row-form test inputs, their split into the columns the analysis API
// consumes, and brute-force oracles over the rows.
//
// The analysis runs one (columnar) path; these oracles are the
// independent check on it. Each is a small per-bin / per-slot / per-frame
// restatement of the rule the production code implements, written from
// the rule and sharing no code with src/ (no util::simd kernels, no
// classifier or detector calls): a disagreement means one of the two is
// wrong (cf. the cross-validation argument of PAPERS.md's CTMC
// habitat-monitoring entry).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "beacon/beacon.hpp"
#include "dsp/speech.hpp"
#include "dsp/walking.hpp"
#include "io/records.hpp"
#include "locate/room_classifier.hpp"

namespace hs::oracle {

// --- row-form inputs ---------------------------------------------------------

/// One beacon observation (seconds on the rectified timeline).
struct ObsRow {
  double t_s = 0.0;
  io::BeaconId beacon = 0;
  int rssi_dbm = -127;
};

/// One audio feature frame.
struct AudioRow {
  double t_s = 0.0;
  float level_db = 0.0F;
  float voiced_fraction = 0.0F;
  float f0_hz = 0.0F;
};

/// Split observation rows into the column arrays RoomClassifier::classify
/// and Triangulator::fixes consume. RSSI values stay within int8 (as the
/// real columns do), so the narrowing is lossless.
struct ObsCols {
  std::vector<double> t;
  std::vector<io::BeaconId> beacon;
  std::vector<std::int8_t> rssi;

  explicit ObsCols(const std::vector<ObsRow>& obs) {
    for (const auto& o : obs) {
      t.push_back(o.t_s);
      beacon.push_back(o.beacon);
      rssi.push_back(static_cast<std::int8_t>(o.rssi_dbm));
    }
  }
};

/// Split audio rows into the column arrays SpeechDetector::analyze
/// consumes.
struct AudioCols {
  std::vector<double> t;
  std::vector<float> level;
  std::vector<float> voiced;
  std::vector<float> f0;

  explicit AudioCols(const std::vector<AudioRow>& frames) {
    for (const auto& a : frames) {
      t.push_back(a.t_s);
      level.push_back(a.level_db);
      voiced.push_back(a.voiced_fraction);
      f0.push_back(a.f0_hz);
    }
  }
};

// --- room classification -----------------------------------------------------

/// Room-level classification of a time-sorted observation stream, in two
/// separate passes. Pass 1 bins: a bin opens at the first unbinned
/// observation, spans [t, t + bin_s), and its fix is the room of the
/// first strongest observation (no fix when that beacon is not in the
/// survey); a record whose own bin cannot contain it (NaN time) is
/// dropped. Pass 2 folds the fixes into stays: a fix continues the last
/// stay when it is the same room and starts within gap_carry_s of the
/// previous fix's end; otherwise it opens a new stay, and — unless the
/// gap was too long — the previous stay is stretched to meet it.
inline std::vector<locate::RoomStay> classify(const std::vector<ObsRow>& obs,
                                              const std::vector<beacon::Beacon>& beacons,
                                              const locate::ClassifierParams& params = {}) {
  struct Fix {
    double start = 0.0;
    double end = 0.0;
    habitat::RoomId room = habitat::RoomId::kNone;
  };
  auto room_of = [&beacons](io::BeaconId id) {
    for (const auto& b : beacons) {
      if (b.id == id) return b.room;
    }
    return habitat::RoomId::kNone;
  };

  std::vector<Fix> fixes;
  std::size_t i = 0;
  while (i < obs.size()) {
    const double start = obs[i].t_s;
    const double end = start + params.bin_s;
    if (!(start < end)) {
      ++i;
      continue;
    }
    std::size_t best = i;
    std::size_t j = i;
    for (; j < obs.size() && obs[j].t_s < end; ++j) {
      if (obs[j].rssi_dbm > obs[best].rssi_dbm) best = j;
    }
    const habitat::RoomId room = room_of(obs[best].beacon);
    if (room != habitat::RoomId::kNone) fixes.push_back(Fix{start, end, room});
    i = j;
  }

  std::vector<locate::RoomStay> stays;
  double previous_end = obs.empty() ? 0.0 : obs.front().t_s;
  for (const Fix& f : fixes) {
    const bool gap_too_long = f.start - previous_end > params.gap_carry_s;
    if (!gap_too_long && !stays.empty() && stays.back().room == f.room) {
      stays.back().end_s = f.end;
    } else {
      if (!gap_too_long && !stays.empty() && stays.back().end_s < f.start) {
        stays.back().end_s = f.start;
      }
      stays.push_back(locate::RoomStay{f.room, f.start, f.end});
    }
    previous_end = f.end;
  }
  return stays;
}

// --- speech intervals --------------------------------------------------------

/// The paper's speech rule over a time-sorted frame stream, one interval
/// slot at a time: frames group by slot floor((t - t0) / interval_s);
/// a frame is voiced when its voiced fraction and level reach the
/// thresholds (compared in double, so NaN never counts); an interval is
/// speech when its voiced frames cover >= min_coverage of the interval
/// (1 s frames). Loudness is the mean level of the voiced frames, summed
/// in frame order; the dominant f0 is the most-voted 10 Hz bin among
/// voiced frames with a positive f0, the lowest bin on a tie.
inline std::vector<dsp::SpeechInterval> speech(const std::vector<AudioRow>& frames, double t0_s,
                                               const dsp::SpeechParams& params = {}) {
  std::vector<dsp::SpeechInterval> out;
  std::size_t i = 0;
  while (i < frames.size()) {
    const auto slot_of = [&](const AudioRow& a) {
      return static_cast<std::int64_t>(std::floor((a.t_s - t0_s) / params.interval_s));
    };
    const std::int64_t slot = slot_of(frames[i]);
    dsp::SpeechInterval iv;
    iv.start_s = t0_s + static_cast<double>(slot) * params.interval_s;
    double level_sum = 0.0;
    std::map<int, int> votes;
    for (; i < frames.size() && slot_of(frames[i]) == slot; ++i) {
      const AudioRow& a = frames[i];
      ++iv.total_frames;
      const bool voiced = static_cast<double>(a.voiced_fraction) >= params.min_voiced_fraction &&
                          static_cast<double>(a.level_db) >= params.min_level_db;
      if (!voiced) continue;
      ++iv.voiced_frames;
      level_sum += static_cast<double>(a.level_db);
      if (a.f0_hz > 0.0F) ++votes[static_cast<int>(std::lround(a.f0_hz / 10.0F)) * 10];
    }
    iv.speech = iv.voiced_frames > 0 &&
                static_cast<double>(iv.voiced_frames) / params.interval_s >= params.min_coverage;
    iv.mean_voiced_db =
        iv.voiced_frames > 0 ? level_sum / static_cast<double>(iv.voiced_frames) : 0.0;
    int best_votes = 0;
    for (const auto& [bin, n] : votes) {
      if (n > best_votes) {
        best_votes = n;
        iv.dominant_f0_hz = static_cast<double>(bin);
      }
    }
    out.push_back(iv);
  }
  return out;
}

// --- walking -----------------------------------------------------------------

/// One motion frame counts as walking when its step frequency lies in
/// [min_step_hz, max_step_hz] and its acceleration variance reaches
/// min_accel_var, all compared in double (NaN never counts).
inline bool walking(float step_freq_hz, float accel_var, const dsp::WalkingParams& params = {}) {
  const auto step = static_cast<double>(step_freq_hz);
  return step >= params.min_step_hz && step <= params.max_step_hz &&
         static_cast<double>(accel_var) >= params.min_accel_var;
}

/// Walking frames among `n` frames.
inline std::size_t count_walking(const float* step_freq_hz, const float* accel_var, std::size_t n,
                                 const dsp::WalkingParams& params = {}) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (walking(step_freq_hz[i], accel_var[i], params)) ++count;
  }
  return count;
}

/// Mission day (1-based) of a rectified time in seconds.
inline int day_of(double t_s) { return static_cast<int>(std::floor(t_s / 86400.0)) + 1; }

}  // namespace hs::oracle
