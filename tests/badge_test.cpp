// Unit tests for the badge device model: battery, SD card, wear state
// machine, sensor frames, scanning, and the badge network.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "badge/badge.hpp"
#include "badge/network.hpp"
#include "beacon/beacon.hpp"
#include "io/binlog.hpp"

namespace hs::badge {
namespace {

/// A test bearer standing at a fixed position.
class StaticWearer final : public Wearer {
 public:
  explicit StaticWearer(Vec2 pos, bool walking = false, double muffle = 0.0)
      : pos_(pos), walking_(walking), muffle_(muffle) {}

  [[nodiscard]] Vec2 position() const override { return pos_; }
  [[nodiscard]] double facing() const override { return 0.0; }
  [[nodiscard]] MotionSample motion() const override {
    MotionSample m;
    m.walking = walking_;
    m.speed_mps = walking_ ? 1.2 : 0.0;
    return m;
  }
  [[nodiscard]] double mic_attenuation_db() const override { return muffle_; }

  Vec2 pos_;
  bool walking_;
  double muffle_;
};

/// A constant environment with configurable speech.
class FixedEnvironment final : public EnvironmentModel {
 public:
  [[nodiscard]] AmbientSample ambient_at(Vec2 /*pos*/, SimTime /*now*/) const override {
    return sample_;
  }
  AmbientSample sample_;
};

// ----------------------------------------------------------------- battery

TEST(Battery, DrainsWhenActive) {
  Battery b;
  const double before = b.charge_mah();
  b.step(hours(1), Battery::Mode::kActive);
  EXPECT_NEAR(before - b.charge_mah(), b.params().active_draw_ma, 1e-9);
}

TEST(Battery, ChargesWhenDocked) {
  Battery b;
  b.step(hours(10), Battery::Mode::kActive);
  const double low = b.charge_mah();
  b.step(hours(1), Battery::Mode::kCharging);
  EXPECT_NEAR(b.charge_mah() - low, b.params().charge_ma, 1e-9);
}

TEST(Battery, ClampsAtCapacity) {
  Battery b;
  b.step(hours(100), Battery::Mode::kCharging);
  EXPECT_DOUBLE_EQ(b.fraction(), 1.0);
}

TEST(Battery, SurvivesDutyDayButNotTwo) {
  // The paper's constraint: badges must be charged overnight.
  Battery b;
  b.step(hours(14), Battery::Mode::kActive);
  EXPECT_FALSE(b.depleted());
  b.step(hours(14), Battery::Mode::kActive);
  EXPECT_TRUE(b.depleted());
}

TEST(Battery, OvernightChargeRestores) {
  Battery b;
  b.step(hours(14), Battery::Mode::kActive);
  b.step(hours(10), Battery::Mode::kCharging);
  EXPECT_GT(b.fraction(), 0.9);
}

// ------------------------------------------------------------------ SD card

TEST(SdCard, AccountsRawBytes) {
  SdCard sd;
  sd.account_raw(1000.0);
  sd.account_raw(500.0);
  EXPECT_EQ(sd.bytes_written(), 1500);
}

TEST(SdCard, CountsRecords) {
  SdCard sd;
  sd.log(io::BeaconObs{});
  sd.log(io::AudioFrame{});
  sd.log(io::WearEvent{});
  EXPECT_EQ(sd.record_count(), 3u);
  EXPECT_GT(sd.bytes_written(), 0);
}

TEST(SdCard, ExportBinlogRoundTrips) {
  SdCard sd;
  sd.log(io::BeaconObs{10, 1, 2, -60});
  sd.log(io::SyncSample{100, 120, 1});
  const auto bytes = sd.export_binlog();
  std::size_t seen = 0;
  io::BinLogVisitor v;
  v.on_beacon_obs = [&](const io::BeaconObs& r) {
    EXPECT_EQ(r.t, 10u);
    ++seen;
  };
  v.on_sync_sample = [&](const io::SyncSample& r) {
    EXPECT_EQ(r.ref, 120u);
    ++seen;
  };
  ASSERT_TRUE(io::replay_binlog(bytes, v).has_value());
  EXPECT_EQ(seen, 2u);
}

// -------------------------------------------------------------------- badge

class BadgeTest : public ::testing::Test {
 protected:
  habitat::Habitat habitat_ = habitat::Habitat::lunares();
  Vec2 kitchen_ = habitat_.room(habitat::RoomId::kKitchen).bounds.center();
  Badge badge_{0, timesync::DriftingClock(0, 0.0, 0), BadgeParams{}};
  FixedEnvironment env_;
  Rng rng_{7};
};

TEST_F(BadgeTest, WearStateMachineLogsEvents) {
  StaticWearer wearer(kitchen_);
  badge_.dock({0, 0}, 0);
  badge_.put_on(&wearer, seconds(10));
  EXPECT_TRUE(badge_.worn());
  badge_.take_off(kitchen_, seconds(20));
  EXPECT_FALSE(badge_.worn());
  EXPECT_TRUE(badge_.active());
  badge_.dock({0, 0}, seconds(30));
  EXPECT_FALSE(badge_.active());

  // Badges boot in the Off state, so the initial dock() is a no-op.
  const auto& events = badge_.sd().wear();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].state, io::WearState::kWorn);
  EXPECT_EQ(events[1].state, io::WearState::kActiveIdle);
  EXPECT_EQ(events[2].state, io::WearState::kOff);
}

TEST_F(BadgeTest, PositionFollowsWearer) {
  StaticWearer wearer(kitchen_);
  badge_.put_on(&wearer, 0);
  EXPECT_EQ(badge_.position(), kitchen_);
  wearer.pos_ = kitchen_ + Vec2{1.0, 0.0};
  EXPECT_EQ(badge_.position(), wearer.pos_);
  badge_.take_off({1.0, 2.0}, seconds(1));
  EXPECT_EQ(badge_.position(), (Vec2{1.0, 2.0}));
}

TEST_F(BadgeTest, WornWalkingProducesGaitFrames) {
  StaticWearer wearer(kitchen_, /*walking=*/true);
  badge_.put_on(&wearer, 0);
  for (int i = 0; i < 60; ++i) badge_.tick_frames(seconds(i), env_, rng_);
  const auto& motion = badge_.sd().motion();
  ASSERT_EQ(motion.size(), 60u);
  for (const auto& f : motion) {
    EXPECT_GT(f.step_freq_hz, 0.8F);
    EXPECT_GT(f.accel_var, 1.0F);
  }
}

TEST_F(BadgeTest, IdleBadgeSeesNoiseFloor) {
  badge_.take_off(kitchen_, 0);
  for (int i = 0; i < 30; ++i) badge_.tick_frames(seconds(i), env_, rng_);
  for (const auto& f : badge_.sd().motion()) {
    EXPECT_LT(f.accel_var, 0.05F);
    EXPECT_EQ(f.step_freq_hz, 0.0F);
  }
}

TEST_F(BadgeTest, AudioFrameReflectsSpeechField) {
  StaticWearer wearer(kitchen_);
  badge_.put_on(&wearer, 0);
  env_.sample_.speech_db = 66.0;
  env_.sample_.voiced_fraction = 0.7;
  env_.sample_.dominant_f0_hz = 200.0;
  badge_.tick_frames(0, env_, rng_);
  const auto& audio = badge_.sd().audio();
  ASSERT_EQ(audio.size(), 1u);
  EXPECT_NEAR(audio[0].level_db, 66.0F, 4.0F);
  EXPECT_FLOAT_EQ(audio[0].dominant_f0_hz, 200.0F);
}

TEST_F(BadgeTest, MuffledMicAttenuates) {
  StaticWearer wearer(kitchen_, false, /*muffle=*/10.0);
  badge_.put_on(&wearer, 0);
  env_.sample_.speech_db = 66.0;
  env_.sample_.voiced_fraction = 0.7;
  badge_.tick_frames(0, env_, rng_);
  EXPECT_LT(badge_.sd().audio()[0].level_db, 61.0F);
}

TEST_F(BadgeTest, RawBytesAccountedOnlyWhileActive) {
  badge_.dock({0, 0}, 0);
  badge_.tick_frames(0, env_, rng_);
  const auto docked_bytes = badge_.sd().bytes_written();
  badge_.undock(seconds(1));
  badge_.tick_frames(seconds(1), env_, rng_);
  EXPECT_GT(badge_.sd().bytes_written(), docked_bytes + 30000);
}

TEST_F(BadgeTest, DepletedBadgeStopsLogging) {
  StaticWearer wearer(kitchen_);
  badge_.put_on(&wearer, 0);
  // Burn through the battery (no overnight charge).
  for (int h = 0; h < 40; ++h) badge_.battery().step(hours(1), Battery::Mode::kActive);
  EXPECT_TRUE(badge_.battery().depleted());
  const auto records_before = badge_.sd().record_count();
  badge_.tick_frames(seconds(1), env_, rng_);
  EXPECT_EQ(badge_.sd().record_count(), records_before);
  EXPECT_FALSE(badge_.active());
}

TEST_F(BadgeTest, DueStaggersByBadgeId) {
  Badge a{0, timesync::DriftingClock(0, 0.0, 0), BadgeParams{}};
  Badge b{1, timesync::DriftingClock(0, 0.0, 0), BadgeParams{}};
  // Period 5: badge 0 fires at t=0,5s,...; badge 1 at 4s,9s,...
  EXPECT_TRUE(a.due(0, 5));
  EXPECT_FALSE(b.due(0, 5));
  EXPECT_TRUE(b.due(seconds(4), 5));
}

TEST_F(BadgeTest, ScanLogsSameRoomBeacons) {
  StaticWearer wearer(kitchen_);
  badge_.put_on(&wearer, 0);
  const auto beacons = beacon::deploy_lunares_beacons(habitat_);
  std::vector<beacon::AudibleBeacon> candidates;
  for (const auto& b : beacons) {
    if (b.room == habitat::RoomId::kKitchen) candidates.push_back({&b, b.room});
  }
  ASSERT_GE(candidates.size(), 2u);
  radio::Channel ble(habitat_, habitat::kBleChannel);
  badge_.scan_beacons(0, habitat::RoomId::kKitchen, candidates, ble, rng_);
  EXPECT_EQ(badge_.sd().beacon_obs().size(), candidates.size());
}

TEST_F(BadgeTest, SyncRecordsReferenceTime) {
  timesync::DriftingClock ref(0, 0.0, 0);
  badge_.record_sync(seconds(100), ref);
  const auto& sync = badge_.sd().sync();
  ASSERT_EQ(sync.size(), 1u);
  EXPECT_EQ(sync[0].ref, 100'000u);
}

// ------------------------------------------------------------------ network

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : beacons_(beacon::deploy_lunares_beacons(habitat_)),
        network_(habitat_, beacons_, habitat_.room(habitat::RoomId::kBedroom).bounds.center()) {
    network_.set_environment(env_);
  }

  habitat::Habitat habitat_ = habitat::Habitat::lunares();
  std::vector<beacon::Beacon> beacons_;
  BadgeNetwork network_;
  FixedEnvironment env_;
  Rng rng_{11};
};

TEST_F(NetworkTest, ReferenceBadgeIsActiveAndPowered) {
  network_.add_reference_badge(timesync::DriftingClock(0, 0.0, 0));
  const Badge* ref = network_.reference();
  ASSERT_NE(ref, nullptr);
  EXPECT_TRUE(ref->active());
  EXPECT_TRUE(ref->external_power());
}

TEST_F(NetworkTest, TickProducesScansForWornBadges) {
  Badge* badge = network_.add_badge(0, timesync::DriftingClock(0, 0.0, 0));
  StaticWearer wearer(habitat_.room(habitat::RoomId::kOffice).bounds.center());
  badge->undock(0);
  badge->put_on(&wearer, 0);
  for (int i = 0; i < 10; ++i) network_.tick(seconds(i), rng_);
  EXPECT_GT(badge->sd().beacon_obs().size(), 10u);
  // All observations from office (or leaked neighbours) — mostly office.
  int office_obs = 0;
  for (const auto& o : badge->sd().beacon_obs()) {
    for (const auto& b : beacons_) {
      if (b.id == o.beacon && b.room == habitat::RoomId::kOffice) ++office_obs;
    }
  }
  EXPECT_GT(office_obs, static_cast<int>(badge->sd().beacon_obs().size() * 3 / 4));
}

// Every beacon layout a fleet campaign can deploy: the scan's cached
// beacon room is the room the beacon's position lies in. The beacons axis
// accepts 9..27: deploy_lunares_beacons places at least one beacon in each
// of its 9 covered rooms.
TEST(BeaconRooms, CachedRoomIsRoomAtForEveryFleetLayout) {
  const habitat::Habitat habitat = habitat::Habitat::lunares();
  const Vec2 station = habitat.room(habitat::RoomId::kBedroom).bounds.center();
  for (int count = 9; count <= 27; ++count) {
    const BadgeNetwork network(habitat, beacon::deploy_lunares_beacons(habitat, count), station);
    std::size_t listed = 0;
    for (const auto room : habitat::all_rooms()) {
      for (const auto& a : network.candidates_for(room)) {
        EXPECT_EQ(a.room, habitat.room_at(a.beacon->position)) << count << " beacons";
        ++listed;
      }
    }
    const auto& all = network.candidates_for(habitat::RoomId::kNone);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ(all[i].beacon, &network.beacons()[i]);
      EXPECT_EQ(all[i].room, habitat.room_at(network.beacons()[i].position)) << count;
    }
    EXPECT_GT(listed, 0u);
  }
}

// The hoisted scan (one mean per beacon link, ads_per_scan fades around
// it) logs exactly what per-advertisement try_receive calls logged, and
// leaves the random stream in the same state.
TEST_F(NetworkTest, ScanMatchesPerAdvertisementReception) {
  const radio::Channel& ble = network_.channel(io::Band::kBle24);
  Rng pick(5);
  const habitat::Rect box = habitat_.bounding_box();
  std::size_t logged = 0;
  for (int i = 0; i < 150; ++i) {
    Vec2 pos{pick.uniform(box.lo.x, box.hi.x), pick.uniform(box.lo.y, box.hi.y)};
    if (i % 3 == 0) {  // a third near a door, where the aperture rule applies
      const auto room = habitat::all_rooms()[static_cast<std::size_t>(i / 3) % 8 + 1];
      pos = habitat_.door_between(habitat::RoomId::kAtrium, room) +
            Vec2{pick.uniform(-0.9, 0.9), pick.uniform(-0.9, 0.9)};
    }
    StaticWearer wearer(pos);
    Badge badge{0, timesync::DriftingClock(0, 0.0, 0), BadgeParams{}};
    badge.put_on(&wearer, 0);
    const habitat::RoomId room = habitat_.room_at(pos);
    const auto& candidates = network_.candidates_for(room);

    Rng oracle(100 + i);
    std::vector<std::pair<io::BeaconId, int>> want;
    for (const auto& a : candidates) {
      std::optional<int> best;
      for (int ad = 0; ad < badge.params().ads_per_scan; ++ad) {
        if (const auto rssi = ble.try_receive(a.beacon->position, pos, oracle)) {
          if (!best || *rssi > *best) best = *rssi;
        }
      }
      if (best) want.emplace_back(a.beacon->id, std::clamp(*best, -127, 0));
    }

    Rng hoisted(100 + i);
    badge.scan_beacons(0, room, candidates, ble, hoisted);
    std::vector<std::pair<io::BeaconId, int>> got;
    for (const auto& o : badge.sd().beacon_obs()) got.emplace_back(o.beacon, o.rssi_dbm);
    EXPECT_EQ(want, got) << "badge at (" << pos.x << "," << pos.y << ")";
    EXPECT_EQ(oracle.next_u64(), hoisted.next_u64());
    logged += got.size();
  }
  EXPECT_GT(logged, 200u);
}

TEST_F(NetworkTest, ProximityPingsFlowBetweenNearbyBadges) {
  Badge* a = network_.add_badge(0, timesync::DriftingClock(0, 0.0, 0));
  Badge* b = network_.add_badge(1, timesync::DriftingClock(0, 0.0, 0));
  const Vec2 pos = habitat_.room(habitat::RoomId::kKitchen).bounds.center();
  StaticWearer wa(pos);
  StaticWearer wb(pos + Vec2{1.0, 0.0});
  a->put_on(&wa, 0);
  b->put_on(&wb, 0);
  for (int i = 0; i < 30; ++i) network_.tick(seconds(i), rng_);
  EXPECT_GT(a->sd().pings().size(), 0u);
  EXPECT_GT(b->sd().pings().size(), 0u);
  EXPECT_EQ(a->sd().pings()[0].sender, 1);
}

TEST_F(NetworkTest, DockedBadgesSyncWithReference) {
  network_.add_reference_badge(timesync::DriftingClock(0, 0.0, 0));
  Badge* badge = network_.add_badge(0, timesync::DriftingClock(0, 25.0, 99));
  ASSERT_TRUE(badge->docked());
  // Sync period is 300 s by default: tick through 20 minutes.
  for (int i = 0; i < 1200; ++i) network_.tick(seconds(i), rng_);
  EXPECT_GE(badge->sd().sync().size(), 3u);
}

TEST_F(NetworkTest, TotalBytesAggregates) {
  network_.add_reference_badge(timesync::DriftingClock(0, 0.0, 0));
  for (int i = 0; i < 10; ++i) network_.tick(seconds(i), rng_);
  EXPECT_GT(network_.total_bytes(), 0);
}

}  // namespace
}  // namespace hs::badge
