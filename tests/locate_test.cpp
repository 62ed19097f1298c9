// Unit + property tests for the localization stack: room classification,
// dwell filtering, triangulation, heatmaps, transition counting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "beacon/beacon.hpp"
#include "habitat/propagation.hpp"
#include "locate/heatmap.hpp"
#include "locate/room_classifier.hpp"
#include "locate/transitions.hpp"
#include "locate/triangulate.hpp"
#include "row_oracles.hpp"
#include "util/rng.hpp"

namespace hs::locate {
namespace {

using habitat::RoomId;
using oracle::ObsCols;
using oracle::ObsRow;

/// Classify row observations through the column API.
std::vector<RoomStay> classify_rows(const RoomClassifier& classifier,
                                    const std::vector<ObsRow>& obs) {
  const ObsCols cols(obs);
  return classifier.classify(cols.t.data(), cols.beacon.data(), cols.rssi.data(), cols.t.size());
}

/// Triangulate row observations through the column API.
std::vector<PositionFix> fixes_of(const Triangulator& tri, const std::vector<ObsRow>& obs,
                                  const std::vector<RoomStay>& track) {
  const ObsCols cols(obs);
  return tri.fixes(cols.t.data(), cols.beacon.data(), cols.rssi.data(), cols.t.size(), track);
}

/// Single-bin estimate of row observations through the column API.
Vec2 estimate_of(const Triangulator& tri, const std::vector<ObsRow>& bin, RoomId room) {
  const ObsCols cols(bin);
  return tri.estimate(cols.beacon.data(), cols.rssi.data(), cols.t.size(), room);
}

class LocateFixture : public ::testing::Test {
 protected:
  LocateFixture() : beacons_(beacon::deploy_lunares_beacons(habitat_)) {}

  /// Synthesize observations for a badge at `pos` over [t0, t1), 1 Hz,
  /// using the real propagation model.
  std::vector<ObsRow> obs_at(Vec2 pos, double t0, double t1, Rng& rng) const {
    habitat::Propagation prop(habitat_, habitat::kBleChannel);
    std::vector<ObsRow> out;
    for (double t = t0; t < t1; t += 1.0) {
      for (const auto& b : beacons_) {
        const double rssi = prop.sample_rssi(b.position, pos, rng);
        if (rssi >= habitat::kBleChannel.sensitivity_dbm) {
          out.push_back(ObsRow{t, b.id, static_cast<int>(rssi)});
        }
      }
    }
    return out;
  }

  habitat::Habitat habitat_ = habitat::Habitat::lunares();
  std::vector<beacon::Beacon> beacons_;
};

TEST_F(LocateFixture, ClassifiesStationaryBadgePerfectly) {
  Rng rng(3);
  const Vec2 pos = habitat_.room(RoomId::kBiolab).bounds.center();
  const auto obs = obs_at(pos, 0.0, 120.0, rng);
  RoomClassifier classifier(beacons_);
  const auto stays = classify_rows(classifier, obs);
  ASSERT_EQ(stays.size(), 1u);
  EXPECT_EQ(stays[0].room, RoomId::kBiolab);
  EXPECT_NEAR(stays[0].duration_s(), 120.0, 2.0);
}

TEST_F(LocateFixture, TracksRoomChange) {
  Rng rng(5);
  auto obs = obs_at(habitat_.room(RoomId::kKitchen).bounds.center(), 0.0, 60.0, rng);
  const auto second = obs_at(habitat_.room(RoomId::kOffice).bounds.center(), 60.0, 120.0, rng);
  obs.insert(obs.end(), second.begin(), second.end());
  RoomClassifier classifier(beacons_);
  const auto stays = classify_rows(classifier, obs);
  ASSERT_GE(stays.size(), 2u);
  EXPECT_EQ(stays.front().room, RoomId::kKitchen);
  EXPECT_EQ(stays.back().room, RoomId::kOffice);
}

TEST_F(LocateFixture, GapClosesStay) {
  Rng rng(7);
  auto obs = obs_at(habitat_.room(RoomId::kKitchen).bounds.center(), 0.0, 30.0, rng);
  const auto later = obs_at(habitat_.room(RoomId::kKitchen).bounds.center(), 300.0, 330.0, rng);
  obs.insert(obs.end(), later.begin(), later.end());
  RoomClassifier classifier(beacons_);
  const auto stays = classify_rows(classifier, obs);
  ASSERT_EQ(stays.size(), 2u);  // the 270 s silence splits the stays
  EXPECT_LT(stays[0].end_s, 40.0);
}

TEST(RoomClassifierUnit, EmptyInput) {
  RoomClassifier classifier({});
  EXPECT_TRUE(classifier.classify(nullptr, nullptr, nullptr, 0).empty());
}

TEST(FilterShortStays, DropsBleedThrough) {
  std::vector<RoomStay> stays{
      {RoomId::kOffice, 0.0, 300.0},
      {RoomId::kAtrium, 300.0, 303.0},  // 3 s flicker through an open door
      {RoomId::kOffice, 303.0, 600.0},
  };
  const auto filtered = filter_short_stays(stays, 10.0);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].room, RoomId::kOffice);
  EXPECT_DOUBLE_EQ(filtered[0].duration_s(), 600.0);
}

TEST(FilterShortStays, KeepsRealVisits) {
  std::vector<RoomStay> stays{
      {RoomId::kOffice, 0.0, 300.0},
      {RoomId::kKitchen, 300.0, 420.0},  // a 2 min hydration run
      {RoomId::kOffice, 420.0, 600.0},
  };
  EXPECT_EQ(filter_short_stays(stays, 10.0).size(), 3u);
}

TEST(DropRoom, RemovesAllStaysOfRoom) {
  std::vector<RoomStay> stays{
      {RoomId::kOffice, 0.0, 10.0}, {RoomId::kAtrium, 10.0, 20.0}, {RoomId::kKitchen, 20.0, 30.0}};
  const auto out = drop_room(stays, RoomId::kAtrium);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].room, RoomId::kKitchen);
}

TEST(RoomAtTime, BinarySearchSemantics) {
  std::vector<RoomStay> stays{{RoomId::kOffice, 10.0, 20.0}, {RoomId::kKitchen, 25.0, 30.0}};
  EXPECT_EQ(room_at_time(stays, 5.0), RoomId::kNone);
  EXPECT_EQ(room_at_time(stays, 10.0), RoomId::kOffice);
  EXPECT_EQ(room_at_time(stays, 19.9), RoomId::kOffice);
  EXPECT_EQ(room_at_time(stays, 22.0), RoomId::kNone);
  EXPECT_EQ(room_at_time(stays, 27.0), RoomId::kKitchen);
  EXPECT_EQ(room_at_time(stays, 30.0), RoomId::kNone);
}

TEST(TotalTimeIn, Sums) {
  std::vector<RoomStay> stays{{RoomId::kOffice, 0.0, 10.0},
                              {RoomId::kKitchen, 10.0, 15.0},
                              {RoomId::kOffice, 15.0, 40.0}};
  EXPECT_DOUBLE_EQ(total_time_in(stays, RoomId::kOffice), 35.0);
}

// -------------------------------------------------------------- triangulation

/// Property: with the 27-beacon deployment, in-room triangulation lands
/// within ~2 m of the true position anywhere in the covered rooms.
class TriangulationSweep : public ::testing::TestWithParam<int> {};

TEST_P(TriangulationSweep, PositionErrorBounded) {
  habitat::Habitat habitat = habitat::Habitat::lunares();
  const auto beacons = beacon::deploy_lunares_beacons(habitat);
  habitat::Propagation prop(habitat, habitat::kBleChannel);
  Triangulator tri(habitat, beacons);
  Rng rng(1000 + GetParam());

  const auto room = habitat::all_rooms()[static_cast<std::size_t>(GetParam())];
  if (room == RoomId::kHangar) GTEST_SKIP() << "no coverage in the hangar";
  const auto& bounds = habitat.room(room).bounds;

  double total_error = 0.0;
  int n = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Vec2 truth = bounds.clamp(
        {rng.uniform(bounds.lo.x, bounds.hi.x), rng.uniform(bounds.lo.y, bounds.hi.y)}, 0.2);
    std::vector<ObsRow> bin;
    for (const auto& b : beacons) {
      const double rssi = prop.sample_rssi(b.position, truth, rng);
      if (rssi >= habitat::kBleChannel.sensitivity_dbm) {
        bin.push_back(ObsRow{0.0, b.id, static_cast<int>(rssi)});
      }
    }
    const Vec2 estimate = estimate_of(tri, bin, room);
    EXPECT_EQ(habitat.room_at(estimate), room);  // never escapes the room
    total_error += distance(estimate, truth);
    ++n;
  }
  EXPECT_LT(total_error / n, 2.2) << habitat::room_name(room);
}

INSTANTIATE_TEST_SUITE_P(Rooms, TriangulationSweep, ::testing::Range(0, 9));

TEST(Triangulator, NoBeaconsFallsBackToRoomCenter) {
  habitat::Habitat habitat = habitat::Habitat::lunares();
  const auto beacons = beacon::deploy_lunares_beacons(habitat);
  Triangulator tri(habitat, beacons);
  const Vec2 est = tri.estimate(nullptr, nullptr, 0, RoomId::kKitchen);
  EXPECT_EQ(est, habitat.room(RoomId::kKitchen).bounds.center());
}

// ------------------------------------------- triangulation edge cases
// (each pinned against a row-form reference triangulation as well)

/// Row-form reference triangulation: the same greedy one-second bins,
/// the track's room at the bin midpoint by linear scan, and the
/// power-weighted centroid of the audible same-room beacons with each
/// weight computed by a live std::pow call (the triangulator reads them
/// from a precomputed table).
std::vector<PositionFix> reference_fixes(const habitat::Habitat& habitat,
                                         const std::vector<beacon::Beacon>& beacons,
                                         const std::vector<ObsRow>& obs,
                                         const std::vector<RoomStay>& track) {
  std::vector<PositionFix> out;
  std::size_t i = 0;
  while (i < obs.size()) {
    const double start = obs[i].t_s;
    if (!(start < start + 1.0)) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < obs.size() && obs[end].t_s < start + 1.0) ++end;
    const double mid = start + 0.5;
    RoomId room = RoomId::kNone;
    for (const auto& s : track) {
      if (s.start_s <= mid && mid < s.end_s) room = s.room;
    }
    if (room != RoomId::kNone) {
      Vec2 acc{};
      double total = 0.0;
      for (std::size_t k = i; k < end; ++k) {
        for (const auto& b : beacons) {
          if (b.id != obs[k].beacon || b.room != room) continue;
          const double w = std::pow(10.0, static_cast<double>(obs[k].rssi_dbm) / 10.0);
          acc += b.position * w;
          total += w;
        }
      }
      const auto& bounds = habitat.room(room).bounds;
      out.push_back(PositionFix{
          mid, total <= 0.0 ? bounds.center() : bounds.clamp(acc / total, 0.05), room});
    }
    i = end;
  }
  return out;
}

class TriangulatorEdge : public ::testing::Test {
 protected:
  TriangulatorEdge()
      : beacons_(beacon::deploy_lunares_beacons(habitat_)), tri_(habitat_, beacons_) {}

  /// Some beacon physically in `room`.
  [[nodiscard]] const beacon::Beacon& beacon_in(RoomId room) const {
    for (const auto& b : beacons_) {
      if (b.room == room) return b;
    }
    ADD_FAILURE() << "no beacon in room";
    return beacons_.front();
  }

  /// The column fixes equal the row-form reference exactly.
  void expect_matches_reference(const std::vector<ObsRow>& obs,
                                const std::vector<RoomStay>& track) const {
    const auto got = fixes_of(tri_, obs, track);
    const auto want = reference_fixes(habitat_, beacons_, obs, track);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].t_s, want[i].t_s) << "fix " << i;
      EXPECT_EQ(got[i].position.x, want[i].position.x) << "fix " << i;
      EXPECT_EQ(got[i].position.y, want[i].position.y) << "fix " << i;
      EXPECT_EQ(got[i].room, want[i].room) << "fix " << i;
    }
  }

  habitat::Habitat habitat_ = habitat::Habitat::lunares();
  std::vector<beacon::Beacon> beacons_;
  Triangulator tri_;
};

TEST_F(TriangulatorEdge, EmptyObservationsYieldNoFixes) {
  const std::vector<RoomStay> track{{RoomId::kKitchen, 0.0, 100.0}};
  EXPECT_TRUE(tri_.fixes(nullptr, nullptr, nullptr, 0, track).empty());
  expect_matches_reference({}, track);
}

TEST_F(TriangulatorEdge, NoAudibleSameRoomBeaconFallsBackToRoomCenter) {
  // The track says kitchen, but the only audible beacon is an office one
  // (door leakage): the bin must fall back to the kitchen centre, never
  // pull the fix through the wall.
  const std::vector<RoomStay> track{{RoomId::kKitchen, 0.0, 100.0}};
  const std::vector<ObsRow> obs{{10.0, beacon_in(RoomId::kOffice).id, -70}};
  const auto fixes = fixes_of(tri_, obs, track);
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_EQ(fixes[0].room, RoomId::kKitchen);
  EXPECT_EQ(fixes[0].position, habitat_.room(RoomId::kKitchen).bounds.center());
  expect_matches_reference(obs, track);
}

TEST_F(TriangulatorEdge, SingleBeaconBinEstimatesAtBeacon) {
  // One audible same-room beacon: the weighted centroid degenerates to
  // the beacon position (clamped into the room), regardless of RSSI.
  const auto& b = beacon_in(RoomId::kBiolab);
  const std::vector<RoomStay> track{{RoomId::kBiolab, 0.0, 100.0}};
  const std::vector<ObsRow> obs{{5.0, b.id, -55}};
  const auto fixes = fixes_of(tri_, obs, track);
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_EQ(fixes[0].room, RoomId::kBiolab);
  const Vec2 expected = habitat_.room(RoomId::kBiolab).bounds.clamp(b.position, 0.05);
  EXPECT_EQ(fixes[0].position, expected);
  EXPECT_DOUBLE_EQ(fixes[0].t_s, 5.5);  // bin midpoint
  expect_matches_reference(obs, track);
}

TEST_F(TriangulatorEdge, ExtremeAndNegativeRssiStillWeighted) {
  // Strongly negative RSSI gives a tiny but positive weight — the bin
  // must not fall back to the room centre, and a louder beacon must
  // dominate the centroid.
  const auto& quiet = beacon_in(RoomId::kBedroom);
  const beacon::Beacon* loud = nullptr;
  for (const auto& b : beacons_) {
    if (b.room == RoomId::kBedroom && b.id != quiet.id) loud = &b;
  }
  const std::vector<RoomStay> track{{RoomId::kBedroom, 0.0, 100.0}};
  std::vector<ObsRow> obs{{1.0, quiet.id, -120}};
  if (loud != nullptr) obs.push_back(ObsRow{1.2, loud->id, -40});
  const auto fixes = fixes_of(tri_, obs, track);
  ASSERT_EQ(fixes.size(), 1u);
  if (loud != nullptr) {
    EXPECT_LT(distance(fixes[0].position,
                       habitat_.room(RoomId::kBedroom).bounds.clamp(loud->position, 0.05)),
              0.5);
  }
  expect_matches_reference(obs, track);
}

TEST_F(TriangulatorEdge, NanTimestampSkippedNotLooped) {
  // A NaN timestamp can't satisfy its own bin predicate; the record must
  // be skipped (and the loop terminate) rather than binned.
  const auto& b = beacon_in(RoomId::kKitchen);
  const std::vector<RoomStay> track{{RoomId::kKitchen, 0.0, 100.0}};
  const std::vector<ObsRow> obs{
      {1.0, b.id, -50},
      {std::numeric_limits<double>::quiet_NaN(), b.id, -50},
      {3.0, b.id, -50},
  };
  const auto fixes = fixes_of(tri_, obs, track);
  ASSERT_EQ(fixes.size(), 2u);
  EXPECT_DOUBLE_EQ(fixes[0].t_s, 1.5);
  EXPECT_DOUBLE_EQ(fixes[1].t_s, 3.5);
  expect_matches_reference(obs, track);
}

TEST_F(TriangulatorEdge, UnknownBeaconIdIgnored) {
  // An id past the survey (or never deployed) contributes nothing.
  const std::vector<RoomStay> track{{RoomId::kKitchen, 0.0, 100.0}};
  const std::vector<ObsRow> obs{{2.0, static_cast<io::BeaconId>(200), -45}};
  const auto fixes = fixes_of(tri_, obs, track);
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_EQ(fixes[0].position, habitat_.room(RoomId::kKitchen).bounds.center());
  expect_matches_reference(obs, track);
}

TEST_F(TriangulatorEdge, TrackGapYieldsNoFix) {
  // Bins whose midpoint falls between stays produce no fix at all.
  const auto& b = beacon_in(RoomId::kKitchen);
  const std::vector<RoomStay> track{{RoomId::kKitchen, 0.0, 2.0}};
  const std::vector<ObsRow> obs{{1.0, b.id, -50}, {50.0, b.id, -50}};
  const auto fixes = fixes_of(tri_, obs, track);
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_DOUBLE_EQ(fixes[0].t_s, 1.5);
  expect_matches_reference(obs, track);
}

TEST_F(TriangulatorEdge, RandomSweepRowAndColumnIdentical) {
  // Propagation-model observations over a multi-room walk: the column
  // path must agree bit-for-bit with the row-form reference on realistic
  // dense input, not just edges.
  habitat::Propagation prop(habitat_, habitat::kBleChannel);
  Rng rng(99);
  std::vector<ObsRow> obs;
  std::vector<RoomStay> track;
  const RoomId rooms[] = {RoomId::kKitchen, RoomId::kOffice, RoomId::kBiolab};
  double t = 0.0;
  for (const RoomId room : rooms) {
    const Vec2 pos = habitat_.room(room).bounds.center();
    track.push_back(RoomStay{room, t, t + 60.0});
    for (double tt = t; tt < t + 60.0; tt += 1.0) {
      for (const auto& b : beacons_) {
        const double rssi = prop.sample_rssi(b.position, pos, rng);
        if (rssi >= habitat::kBleChannel.sensitivity_dbm) {
          obs.push_back(ObsRow{tt, b.id, static_cast<int>(rssi)});
        }
      }
    }
    t += 60.0;
  }
  ASSERT_FALSE(obs.empty());
  expect_matches_reference(obs, track);
}

// ------------------------------------------------------------------- heatmap

TEST(Heatmap, AccumulatesDwellTime) {
  habitat::Habitat habitat = habitat::Habitat::lunares();
  HeatmapAccumulator heat(habitat);
  const Vec2 p = habitat.room(RoomId::kKitchen).bounds.center();
  heat.add(p, 5.0);
  heat.add(p, 3.0);
  EXPECT_DOUBLE_EQ(heat.total_seconds(), 8.0);
  EXPECT_DOUBLE_EQ(heat.at(habitat.cell_of(p)), 8.0);
  EXPECT_DOUBLE_EQ(heat.max_value(), 8.0);
}

TEST(Heatmap, RoomTotalsSeparate) {
  habitat::Habitat habitat = habitat::Habitat::lunares();
  HeatmapAccumulator heat(habitat);
  heat.add(habitat.room(RoomId::kKitchen).bounds.center(), 10.0);
  heat.add(habitat.room(RoomId::kOffice).bounds.center(), 4.0);
  EXPECT_DOUBLE_EQ(heat.room_total(RoomId::kKitchen), 10.0);
  EXPECT_DOUBLE_EQ(heat.room_total(RoomId::kOffice), 4.0);
  EXPECT_DOUBLE_EQ(heat.room_total(RoomId::kBiolab), 0.0);
}

TEST(Heatmap, GridRowsMatchDimensions) {
  habitat::Habitat habitat = habitat::Habitat::lunares();
  HeatmapAccumulator heat(habitat);
  const auto rows = heat.grid_rows();
  EXPECT_EQ(rows.size(), static_cast<std::size_t>(habitat.grid_height()));
  EXPECT_EQ(rows[0].size(), static_cast<std::size_t>(habitat.grid_width()));
  const auto down = heat.grid_rows_downsampled(3);
  EXPECT_LE(down.size() * 3, rows.size() + 3);
}

TEST(Heatmap, DownsamplingPreservesMass) {
  habitat::Habitat habitat = habitat::Habitat::lunares();
  HeatmapAccumulator heat(habitat);
  heat.add(habitat.room(RoomId::kKitchen).bounds.center(), 7.0);
  double full = 0.0;
  for (const auto& row : heat.grid_rows()) {
    for (double v : row) full += v;
  }
  double down = 0.0;
  for (const auto& row : heat.grid_rows_downsampled(4)) {
    for (double v : row) down += v;
  }
  EXPECT_DOUBLE_EQ(full, down);
}

// ---------------------------------------------------------------- transitions

TEST(Transitions, CountsDirectPassages) {
  TransitionMatrix m;
  std::vector<RoomStay> track{
      {RoomId::kOffice, 0.0, 100.0},
      {RoomId::kKitchen, 110.0, 200.0},
      {RoomId::kOffice, 210.0, 400.0},
  };
  m.add_track(track);
  EXPECT_EQ(m.count(RoomId::kOffice, RoomId::kKitchen), 1);
  EXPECT_EQ(m.count(RoomId::kKitchen, RoomId::kOffice), 1);
  EXPECT_EQ(m.total(), 2);
}

TEST(Transitions, AtriumExcluded) {
  TransitionMatrix m;
  std::vector<RoomStay> track{
      {RoomId::kOffice, 0.0, 100.0},
      {RoomId::kAtrium, 100.0, 160.0},  // a whole minute resting in the middle
      {RoomId::kKitchen, 160.0, 300.0},
  };
  m.add_track(track);
  // Fig. 2 does not consider the main room: office -> kitchen counts.
  EXPECT_EQ(m.count(RoomId::kOffice, RoomId::kKitchen), 1);
  EXPECT_EQ(m.outgoing(RoomId::kAtrium), 0);
  EXPECT_EQ(m.incoming(RoomId::kAtrium), 0);
}

TEST(Transitions, ShortDwellFiltered) {
  TransitionMatrix m;
  std::vector<RoomStay> track{
      {RoomId::kOffice, 0.0, 100.0},
      {RoomId::kKitchen, 100.0, 105.0},  // 5 s: beacon bleed, not a visit
      {RoomId::kOffice, 105.0, 300.0},
  };
  m.add_track(track);
  EXPECT_EQ(m.total(), 0);  // office->office after merging is not a passage
}

TEST(Transitions, LongAbsenceNotAPassage) {
  TransitionMatrix m;
  std::vector<RoomStay> track{
      {RoomId::kOffice, 0.0, 100.0},
      {RoomId::kKitchen, 100.0 + 2 * 3600.0, 100.0 + 2 * 3600.0 + 60.0},  // badge off 2 h
  };
  m.add_track(track);
  EXPECT_EQ(m.total(), 0);
}

TEST(Transitions, AccumulatesAcrossTracks) {
  TransitionMatrix m;
  std::vector<RoomStay> track{{RoomId::kBiolab, 0.0, 60.0}, {RoomId::kKitchen, 70.0, 130.0}};
  m.add_track(track);
  m.add_track(track);
  EXPECT_EQ(m.count(RoomId::kBiolab, RoomId::kKitchen), 2);
  EXPECT_EQ(m.outgoing(RoomId::kBiolab), 2);
  EXPECT_EQ(m.incoming(RoomId::kKitchen), 2);
}

}  // namespace
}  // namespace hs::locate
