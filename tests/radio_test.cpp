// Unit tests for packet reception and the IR link model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "radio/channel.hpp"
#include "radio/ir.hpp"

namespace hs::radio {
namespace {

class ChannelTest : public ::testing::Test {
 protected:
  habitat::Habitat habitat_ = habitat::Habitat::lunares();
  Channel ble_{habitat_, habitat::kBleChannel};
};

TEST_F(ChannelTest, StrongLinkAlwaysDecodes) {
  Rng rng(1);
  const Vec2 tx = habitat_.room(habitat::RoomId::kAtrium).bounds.center();
  int received = 0;
  for (int i = 0; i < 200; ++i) {
    if (ble_.try_receive(tx, tx + Vec2{1.0, 0.0}, rng)) ++received;
  }
  EXPECT_EQ(received, 200);
}

TEST_F(ChannelTest, ShieldedLinkAlmostNeverDecodes) {
  Rng rng(2);
  const Vec2 tx = habitat_.room(habitat::RoomId::kBedroom).bounds.center();
  const Vec2 rx = habitat_.room(habitat::RoomId::kStorage).bounds.center();  // across the atrium
  int received = 0;
  for (int i = 0; i < 500; ++i) {
    if (ble_.try_receive(tx, rx, rng)) ++received;
  }
  EXPECT_EQ(received, 0);
}

TEST_F(ChannelTest, RssiQuantizedAndPlausible) {
  Rng rng(3);
  const Vec2 tx = habitat_.room(habitat::RoomId::kAtrium).bounds.center();
  const auto rssi = ble_.try_receive(tx, tx + Vec2{2.0, 0.0}, rng);
  ASSERT_TRUE(rssi.has_value());
  EXPECT_LE(*rssi, 0);
  EXPECT_GE(*rssi, -90);
}

// Reception probability must fall monotonically (within sampling noise)
// as distance grows through the sensitivity region.
class ChannelDistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChannelDistanceSweep, ReceptionProbabilityWithinBounds) {
  habitat::Habitat habitat = habitat::Habitat::lunares();
  Channel ble(habitat, habitat::kBleChannel);
  Rng rng(42);
  const Vec2 tx = habitat.room(habitat::RoomId::kAtrium).bounds.clamp({8.5, 0.5}, 0.2);
  const double d = GetParam();
  int received = 0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    if (ble.try_receive(tx, tx + Vec2{d, 0.0}, rng)) ++received;
  }
  const double p = static_cast<double>(received) / n;
  const double mean = ble.mean_rssi(tx, tx + Vec2{d, 0.0});
  if (mean > ble.params().sensitivity_dbm + 10.0) {
    EXPECT_GT(p, 0.95) << "d=" << d;
  }
  if (mean < ble.params().sensitivity_dbm - 10.0) {
    EXPECT_LT(p, 0.05) << "d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, ChannelDistanceSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 6.0, 9.0));

// ----------------------------------------------- one mean per link, N fades

/// The per-advertisement reception formula as Channel::try_receive computed
/// it before the link mean was hoisted out of the advertisement loop: both
/// rooms, the wall count, the door test and the log10 path loss, all again
/// for every frame. Written out from the habitat primitives so it does not
/// share code with the path it checks.
std::optional<int> per_ad_receive(const habitat::Habitat& habitat,
                                  const habitat::ChannelParams& p, double extra_loss_db,
                                  Vec2 tx, Vec2 rx, Rng& rng) {
  const double d = std::max(0.5, distance(tx, rx));
  const habitat::RoomId room_tx = habitat.room_at(tx);
  const habitat::RoomId room_rx = habitat.room_at(rx);
  const int walls = habitat.walls_between(room_tx, room_rx);
  double obstruction_db = static_cast<double>(walls) * p.wall_loss_db;
  if (walls == 1 && (habitat.near_door(room_tx, room_rx, tx, p.door_radius_m) ||
                     habitat.near_door(room_tx, room_rx, rx, p.door_radius_m))) {
    obstruction_db = p.door_leak_db;
  }
  const double mean = p.tx_power_dbm - (p.path_loss_1m_db +
                                        10.0 * p.path_loss_exponent * std::log10(d) +
                                        obstruction_db);
  const double rssi = (mean + rng.normal(0.0, p.shadow_sigma_db)) - extra_loss_db;
  if (rssi < p.sensitivity_dbm) return std::nullopt;
  const double margin = rssi - p.sensitivity_dbm;
  if (margin < 3.0 && rng.bernoulli(0.5 * (1.0 - margin / 3.0))) return std::nullopt;
  return static_cast<int>(std::lround(std::clamp(rssi, -127.0, 0.0)));
}

struct LinkCase {
  Vec2 tx;
  Vec2 rx;
};

/// Seeded random endpoints over the habitat's bounding box (same-room,
/// cross-wall and kNone positions alike) plus pairs straddling every door
/// inside the aperture radius.
std::vector<LinkCase> link_cases(const habitat::Habitat& habitat) {
  std::vector<LinkCase> cases;
  Rng pick(2024);
  const habitat::Rect box = habitat.bounding_box();
  const auto anywhere = [&] {
    return Vec2{pick.uniform(box.lo.x, box.hi.x), pick.uniform(box.lo.y, box.hi.y)};
  };
  for (int i = 0; i < 400; ++i) cases.push_back({anywhere(), anywhere()});
  for (const auto a : habitat::all_rooms()) {
    for (const auto b : habitat::all_rooms()) {
      if (a == b || !habitat.adjacent(a, b)) continue;
      const Vec2 door = habitat.door_between(a, b);
      const Vec2 far_b = habitat.room(b).bounds.center();
      for (int i = 0; i < 8; ++i) {
        const Vec2 near = door + Vec2{pick.uniform(-0.7, 0.7), pick.uniform(-0.7, 0.7)};
        cases.push_back({near, far_b});
        cases.push_back({far_b, near});
        cases.push_back({near, door + Vec2{pick.uniform(-0.7, 0.7), pick.uniform(-0.7, 0.7)}});
      }
    }
  }
  return cases;
}

class HoistedReceive : public ::testing::TestWithParam<int> {};

TEST_P(HoistedReceive, DrawsTheSameRssiSequencesAsThePerAdFormula) {
  const habitat::Habitat habitat = habitat::Habitat::lunares();
  const habitat::ChannelParams params =
      GetParam() % 2 == 0 ? habitat::kBleChannel : habitat::kSubGhzChannel;
  const double extra_loss_db = GetParam() >= 2 ? 6.5 : 0.0;
  Channel channel(habitat, params);
  channel.add_extra_loss_db(extra_loss_db);

  const auto cases = link_cases(habitat);
  int none_endpoints = 0;
  int door_links = 0;
  int decoded = 0;
  int dropped = 0;
  Rng oracle_rng(7 + GetParam());
  Rng hoisted_rng(7 + GetParam());
  for (const auto& [tx, rx] : cases) {
    const habitat::RoomId room_tx = habitat.room_at(tx);
    const habitat::RoomId room_rx = habitat.room_at(rx);
    none_endpoints += room_tx == habitat::RoomId::kNone || room_rx == habitat::RoomId::kNone;
    door_links += habitat.walls_between(room_tx, room_rx) == 1 &&
                  (habitat.near_door(room_tx, room_rx, tx, params.door_radius_m) ||
                   habitat.near_door(room_tx, room_rx, rx, params.door_radius_m));
    const double mean = channel.mean_rssi(tx, room_tx, rx, room_rx);
    EXPECT_EQ(mean, channel.mean_rssi(tx, rx));
    for (int ad = 0; ad < 3; ++ad) {
      const auto want = per_ad_receive(habitat, params, extra_loss_db, tx, rx, oracle_rng);
      const auto got = channel.receive(mean, hoisted_rng);
      ASSERT_EQ(want, got) << "tx (" << tx.x << "," << tx.y << ") rx (" << rx.x << "," << rx.y
                           << ") ad " << ad;
      (want ? decoded : dropped) += 1;
    }
  }
  // Same number of draws, so the two streams are still in lockstep.
  EXPECT_EQ(oracle_rng.next_u64(), hoisted_rng.next_u64());
  EXPECT_EQ(oracle_rng.normal(), hoisted_rng.normal());
  // The cases cover what they claim to.
  EXPECT_GT(none_endpoints, 20);
  EXPECT_GT(door_links, 40);
  EXPECT_GT(decoded, 100);
  EXPECT_GT(dropped, 100);
}

INSTANTIATE_TEST_SUITE_P(BleSubGhzWithAndWithoutExtraLoss, HoistedReceive,
                         ::testing::Values(0, 1, 2, 3));

// ------------------------------------------------------------------------ IR

class IrTest : public ::testing::Test {
 protected:
  habitat::Habitat habitat_ = habitat::Habitat::lunares();
  IrLink ir_{habitat_};
  Vec2 center_ = habitat_.room(habitat::RoomId::kKitchen).bounds.center();
};

TEST_F(IrTest, FacingPairWithinRangeConnects) {
  const Vec2 a = center_;
  const Vec2 b = center_ + Vec2{1.5, 0.0};
  EXPECT_TRUE(ir_.geometry_ok(a, 0.0, b, M_PI));  // facing each other
}

TEST_F(IrTest, TooFarApartFails) {
  const Vec2 a = center_;
  const Vec2 b = center_ + Vec2{1.8, 0.0};
  // 1.8 m < range, but push beyond max range:
  EXPECT_FALSE(ir_.geometry_ok(a, 0.0, a + Vec2{3.0, 0.0}, M_PI));
  EXPECT_TRUE(ir_.geometry_ok(a, 0.0, b, M_PI));
}

TEST_F(IrTest, FacingAwayFails) {
  const Vec2 a = center_;
  const Vec2 b = center_ + Vec2{1.5, 0.0};
  EXPECT_FALSE(ir_.geometry_ok(a, M_PI, b, M_PI));   // a faces away
  EXPECT_FALSE(ir_.geometry_ok(a, 0.0, b, 0.0));     // b faces away
}

TEST_F(IrTest, ConeEdgeBehaviour) {
  const Vec2 a = center_;
  const Vec2 b = center_ + Vec2{1.5, 0.0};
  const double half = ir_.params().cone_half_angle_rad;
  EXPECT_TRUE(ir_.geometry_ok(a, half - 0.05, b, M_PI));
  EXPECT_FALSE(ir_.geometry_ok(a, half + 0.05, b, M_PI));
}

TEST_F(IrTest, WallsBlockIr) {
  const Vec2 a = habitat_.room(habitat::RoomId::kKitchen).bounds.clamp({12.2, 9.0}, 0.05);
  const Vec2 b = habitat_.room(habitat::RoomId::kBiolab).bounds.clamp({11.8, 9.0}, 0.05);
  // 0.4 m apart but separated by a wall.
  EXPECT_FALSE(ir_.geometry_ok(a, M_PI, b, 0.0));
}

TEST_F(IrTest, DetectionProbabilityApplies) {
  Rng rng(7);
  const Vec2 a = center_;
  const Vec2 b = center_ + Vec2{1.0, 0.0};
  int hits = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) hits += ir_.try_contact(a, 0.0, b, M_PI, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, ir_.params().detect_probability, 0.03);
}

}  // namespace
}  // namespace hs::radio
