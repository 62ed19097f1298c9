// The deployed badge fleet plus its shared radio environment.
//
// BadgeNetwork owns every badge (crew badges, the reference badge at the
// charging station, unused backups), the beacon set and the channel models,
// and advances the whole sensing layer one simulated second at a time. It
// is the "30+ wireless sensors" of the title wired together.
#pragma once

#include <memory>
#include <vector>

#include "badge/badge.hpp"
#include "badge/wearer.hpp"
#include "beacon/beacon.hpp"
#include "habitat/habitat.hpp"
#include "radio/channel.hpp"
#include "radio/ir.hpp"
#include "util/rng.hpp"

namespace hs::badge {

class BadgeNetwork {
 public:
  BadgeNetwork(const habitat::Habitat& habitat, std::vector<beacon::Beacon> beacons,
               Vec2 charging_station, habitat::ChannelParams ble = habitat::kBleChannel,
               habitat::ChannelParams subghz = habitat::kSubGhzChannel);

  /// Wire the world model the badge sensors sample. Must be set before the
  /// first tick (the crew simulator provides it, and needs the network to
  /// exist first).
  void set_environment(const EnvironmentModel& env) { env_ = &env; }

  /// Create and register a badge. The network keeps ownership; the returned
  /// pointer stays valid for the network's lifetime.
  Badge* add_badge(io::BadgeId id, timesync::DriftingClock clock, BadgeParams params = {});

  /// Create the permanently-charged reference badge at the station. It
  /// samples environmental sensors and serves as the fleet's time source.
  Badge* add_reference_badge(timesync::DriftingClock clock, BadgeParams params = {});

  /// Advance the sensing layer by one second ending at `now`.
  void tick(SimTime now, Rng& rng);

  [[nodiscard]] Badge* badge(io::BadgeId id);
  [[nodiscard]] const Badge* badge(io::BadgeId id) const;
  [[nodiscard]] const std::vector<std::unique_ptr<Badge>>& badges() const { return badges_; }
  [[nodiscard]] const std::vector<beacon::Beacon>& beacons() const { return beacons_; }
  [[nodiscard]] Vec2 charging_station() const { return station_; }
  [[nodiscard]] const Badge* reference() const { return reference_; }
  [[nodiscard]] const habitat::Habitat& habitat() const { return *habitat_; }

  /// Total bytes across all SD cards (the paper's "150 GiB of data").
  [[nodiscard]] std::int64_t total_bytes() const;

  // --- fault hooks (driven by hs::faults) ----------------------------------
  /// Mark a beacon dark (power loss, firmware hang): its advertisements
  /// vanish from scan windows until the outage clears.
  void set_beacon_down(io::BeaconId id, bool down);
  [[nodiscard]] bool beacon_down(io::BeaconId id) const;
  /// Add extra path loss to one of the shared channels (interference,
  /// antenna damage); additive, so pass the negative to unwind.
  void add_channel_loss(io::Band band, double db);
  [[nodiscard]] const radio::Channel& channel(io::Band band) const;

  /// Beacons audible from a room: same room or adjacent (two metal walls
  /// put everything else > 30 dB below sensitivity, so they are skipped),
  /// each with its room_at(position) cached. kNone lists every beacon.
  [[nodiscard]] const std::vector<beacon::AudibleBeacon>& candidates_for(habitat::RoomId room) const;

 private:
  const habitat::Habitat* habitat_;
  std::vector<beacon::Beacon> beacons_;
  Vec2 station_;
  const EnvironmentModel* env_ = nullptr;
  radio::Channel ble_;
  radio::Channel subghz_;
  radio::IrLink ir_;
  std::vector<std::unique_ptr<Badge>> badges_;
  Badge* reference_ = nullptr;
  // candidate lists indexed by room (kRoomCount entries + 1 for kNone).
  std::vector<std::vector<beacon::AudibleBeacon>> candidates_;
  // Fault state: one flag per beacon id; count kept so the no-fault scan
  // path stays allocation-free. scan_scratch_ holds the filtered candidate
  // list while an outage is active.
  std::vector<std::uint8_t> beacon_down_;
  std::size_t beacons_down_ = 0;
  std::vector<beacon::AudibleBeacon> scan_scratch_;
  // rooms_[i] = room_at(badges_[i]->position()), refreshed once per tick
  // (nothing moves within a tick) for the scan and 868 MHz link means.
  std::vector<habitat::RoomId> rooms_;
};

}  // namespace hs::badge
