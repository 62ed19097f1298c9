// Room-level indoor localization from BLE beacon observations.
//
// The paper: "the room the badge located in was detected perfectly"
// because metal walls shield cross-room beacons; only door leakage lets an
// occasional foreign advertisement through, and a 10 s minimum-dwell filter
// (footnote 1) removes the resulting flicker. The classifier implements
// exactly that: strongest-beacon-wins per one-second bin, short
// gap carry-forward, and a separate dwell filter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "beacon/beacon.hpp"
#include "habitat/room.hpp"
#include "io/records.hpp"

namespace hs::locate {

/// A contiguous stay in one room, [start_s, end_s).
struct RoomStay {
  habitat::RoomId room = habitat::RoomId::kNone;
  double start_s = 0.0;
  double end_s = 0.0;

  [[nodiscard]] double duration_s() const { return end_s - start_s; }
  friend bool operator==(const RoomStay&, const RoomStay&) = default;
};

struct ClassifierParams {
  double bin_s = 1.0;        ///< localization frame length
  double gap_carry_s = 5.0;  ///< carry last room over observation gaps up to this
};

// Thread-safety: configured at construction, stateless const queries —
// one instance may classify several astronauts' streams concurrently.
class RoomClassifier {
 public:
  explicit RoomClassifier(const std::vector<beacon::Beacon>& beacons,
                          ClassifierParams params = {});

  /// Classify a time-sorted observation stream — contiguous columns of
  /// rectified seconds, beacon ids and RSSI (a RecordBatch or
  /// PersonColumns slice) — into room stays. Bins with no audible beacon
  /// within gap_carry_s of the last fix close the current stay (the badge
  /// is off / out of coverage, e.g. hangar).
  [[nodiscard]] std::vector<RoomStay> classify(const double* t_s, const io::BeaconId* beacon,
                                               const std::int8_t* rssi_dbm,
                                               std::size_t n) const;

  [[nodiscard]] habitat::RoomId room_of_beacon(io::BeaconId id) const;

 private:
  std::vector<habitat::RoomId> beacon_rooms_;  // indexed by BeaconId
  ClassifierParams params_;
};

/// Merge adjacent same-room stays and drop stays shorter than
/// `min_dwell_s` (the paper's 10 s filter; shorter visits are beacon bleed
/// through open doors or walk-throughs).
[[nodiscard]] std::vector<RoomStay> filter_short_stays(const std::vector<RoomStay>& stays,
                                                       double min_dwell_s);

/// Remove every stay in `room` (Fig. 2 excludes the main room) and keep
/// the rest, without merging across the removed stays.
[[nodiscard]] std::vector<RoomStay> drop_room(const std::vector<RoomStay>& stays,
                                              habitat::RoomId room);

/// Total time spent in `room` across a track.
[[nodiscard]] double total_time_in(const std::vector<RoomStay>& stays, habitat::RoomId room);

/// Room occupied at time t_s (kNone if between stays).
[[nodiscard]] habitat::RoomId room_at_time(const std::vector<RoomStay>& stays, double t_s);

}  // namespace hs::locate
