#include "locate/room_classifier.hpp"

#include <algorithm>

namespace hs::locate {

RoomClassifier::RoomClassifier(const std::vector<beacon::Beacon>& beacons, ClassifierParams params)
    : params_(params) {
  io::BeaconId max_id = 0;
  for (const auto& b : beacons) max_id = std::max(max_id, b.id);
  beacon_rooms_.assign(static_cast<std::size_t>(max_id) + 1, habitat::RoomId::kNone);
  for (const auto& b : beacons) beacon_rooms_[b.id] = b.room;
}

habitat::RoomId RoomClassifier::room_of_beacon(io::BeaconId id) const {
  return id < beacon_rooms_.size() ? beacon_rooms_[id] : habitat::RoomId::kNone;
}

std::vector<RoomStay> RoomClassifier::classify(const double* t_s, const io::BeaconId* beacon,
                                               const std::int8_t* rssi_dbm,
                                               std::size_t n) const {
  std::vector<RoomStay> stays;
  if (n == 0) return stays;

  auto close_stay = [&](double end_s) {
    if (!stays.empty() && stays.back().end_s < end_s) stays.back().end_s = end_s;
  };

  std::size_t i = 0;
  double last_fix_end = t_s[0];
  while (i < n) {
    // Collect one bin of observations.
    const double bin_start = t_s[i];
    const double bin_end = bin_start + params_.bin_s;
    int best_rssi = -1000;
    habitat::RoomId best_room = habitat::RoomId::kNone;
    const std::size_t begin = i;
    while (i < n && t_s[i] < bin_end) {
      if (rssi_dbm[i] > best_rssi) {
        best_rssi = rssi_dbm[i];
        best_room = room_of_beacon(beacon[i]);
      }
      ++i;
    }
    if (i == begin) {
      // A NaN timestamp fails its own bin predicate; skip the record or
      // no progress is made.
      ++i;
      continue;
    }
    if (best_room == habitat::RoomId::kNone) continue;

    const bool gap_too_long = bin_start - last_fix_end > params_.gap_carry_s;
    if (!stays.empty() && stays.back().room == best_room && !gap_too_long) {
      stays.back().end_s = bin_end;  // extend current stay (bridging small gaps)
    } else {
      if (!gap_too_long) close_stay(bin_start);
      stays.push_back(RoomStay{best_room, bin_start, bin_end});
    }
    last_fix_end = bin_end;
  }
  return stays;
}

std::vector<RoomStay> filter_short_stays(const std::vector<RoomStay>& stays, double min_dwell_s) {
  // Pass 1: drop short stays. Pass 2: merge adjacent same-room survivors
  // (a short bleed-through between two kitchen stays must not split them).
  std::vector<RoomStay> out;
  for (const auto& s : stays) {
    if (s.duration_s() + 1e-9 < min_dwell_s) continue;
    if (!out.empty() && out.back().room == s.room && s.start_s - out.back().end_s < min_dwell_s) {
      out.back().end_s = s.end_s;
    } else {
      out.push_back(s);
    }
  }
  return out;
}

std::vector<RoomStay> drop_room(const std::vector<RoomStay>& stays, habitat::RoomId room) {
  std::vector<RoomStay> out;
  out.reserve(stays.size());
  for (const auto& s : stays) {
    if (s.room != room) out.push_back(s);
  }
  return out;
}

double total_time_in(const std::vector<RoomStay>& stays, habitat::RoomId room) {
  double total = 0.0;
  for (const auto& s : stays) {
    if (s.room == room) total += s.duration_s();
  }
  return total;
}

habitat::RoomId room_at_time(const std::vector<RoomStay>& stays, double t_s) {
  // Binary search over start times.
  auto it = std::upper_bound(stays.begin(), stays.end(), t_s,
                             [](double t, const RoomStay& s) { return t < s.start_s; });
  if (it == stays.begin()) return habitat::RoomId::kNone;
  --it;
  return (t_s >= it->start_s && t_s < it->end_s) ? it->room : habitat::RoomId::kNone;
}

}  // namespace hs::locate
