// Property tests for sna::detect_meetings and sna::analyze_meeting
// against independent brute-force oracles.
//
// The detector segments per-room runs of >= 2 co-present astronauts with
// grace bridging, then merges sub-grace separated runs. Both mechanisms
// reduce to one invariant: consecutive co-present seconds a < b (same
// room) belong to the same meeting iff b - a < grace + 1. The oracle
// implements *that* formulation directly — per-second co-presence from a
// linear track scan, clustered by the gap rule — so it shares no code or
// structure with the production raster; any disagreement flags a bug in
// one of the two (cf. the cross-validation argument in PAPERS.md's CTMC
// habitat-monitoring entry). Randomized room tracks sweep fractional stay
// boundaries, overlapping gaps, hangar visits, and empty tracks.
//
// The dynamics oracle works one 15 s slot at a time: it collects the
// distinct interval starts the participants share with the meeting,
// then for each slot asks every participant in order whether they spoke
// and how loud — no sorting, no shared slot walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "habitat/room.hpp"
#include "sna/meetings.hpp"
#include "util/rng.hpp"

namespace hs::sna {
namespace {

using habitat::RoomId;
using locate::RoomStay;

/// Oracle room lookup: first stay covering `t` in a sorted,
/// non-overlapping track — deliberately a linear scan, not the
/// production binary search or cursor.
RoomId oracle_room_at(const std::vector<RoomStay>& track, double t) {
  for (const auto& s : track) {
    if (s.start_s <= t && t < s.end_s) return s.room;
  }
  return RoomId::kNone;
}

/// Brute-force meeting detection: per-second co-presence, clustered by
/// the gap < grace + 1 rule, then the duration/participant filters
/// applied verbatim from the Meeting contract.
std::vector<Meeting> oracle_meetings(const std::vector<std::vector<RoomStay>>& tracks,
                                     double t0_s, double t1_s, const MeetingParams& params) {
  const std::size_t n = tracks.size();
  const auto span = static_cast<std::size_t>(std::max(0.0, t1_s - t0_s));
  std::vector<Meeting> out;
  for (const auto room : habitat::all_rooms()) {
    if (room == RoomId::kHangar) continue;
    // Seconds (offsets from t0) where >= 2 astronauts share `room`.
    std::vector<std::size_t> co;
    for (std::size_t t = 0; t < span; ++t) {
      const double now = t0_s + static_cast<double>(t);
      std::size_t occ = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (oracle_room_at(tracks[i], now) == room) ++occ;
      }
      if (occ >= 2) co.push_back(t);
    }
    // Cluster: consecutive co-seconds a < b stay together iff
    // b - a < grace + 1.
    std::size_t k = 0;
    while (k < co.size()) {
      const std::size_t begin = co[k];
      std::size_t last = co[k];
      ++k;
      while (k < co.size() && static_cast<double>(co[k] - last) < params.grace_s + 1.0) {
        last = co[k];
        ++k;
      }
      const std::size_t end = last + 1;
      const double duration = static_cast<double>(end - begin);
      if (duration < params.min_duration_s) continue;
      Meeting m;
      m.room = room;
      m.start_s = t0_s + static_cast<double>(begin);
      m.end_s = t0_s + static_cast<double>(end);
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t present = 0;
        for (std::size_t t = begin; t < end; ++t) {
          if (oracle_room_at(tracks[i], t0_s + static_cast<double>(t)) == room) ++present;
        }
        if (static_cast<double>(present) >= 0.3 * duration) m.participants.push_back(i);
      }
      if (m.participants.size() >= 2) out.push_back(std::move(m));
    }
  }
  // (start, room) is a unique key: one room hosts at most one meeting at
  // a given start. Sorting by it makes the comparison order total.
  std::sort(out.begin(), out.end(), [](const Meeting& a, const Meeting& b) {
    return a.start_s != b.start_s ? a.start_s < b.start_s : a.room < b.room;
  });
  return out;
}

/// Random sorted non-overlapping track: alternating stays and gaps with
/// fractional boundaries, rooms drawn across the whole enum (including
/// the hangar, which the detector must ignore), occasionally empty.
std::vector<RoomStay> random_track(Rng& rng, double t0_s, double t1_s) {
  std::vector<RoomStay> track;
  if (rng.uniform() < 0.05) return track;  // badge never seen
  double t = t0_s + rng.uniform(0.0, 120.0);
  while (t < t1_s) {
    const double stay = rng.uniform(5.0, 400.0);
    const auto room = habitat::all_rooms()[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(habitat::kRoomCount) - 1))];
    track.push_back(RoomStay{room, t, std::min(t + stay, t1_s)});
    t += stay;
    if (rng.uniform() < 0.4) t += rng.uniform(0.5, 200.0);  // off-badge gap
  }
  return track;
}

void sort_canonical(std::vector<Meeting>& meetings) {
  std::sort(meetings.begin(), meetings.end(), [](const Meeting& a, const Meeting& b) {
    return a.start_s != b.start_s ? a.start_s < b.start_s : a.room < b.room;
  });
}

void expect_same_meetings(const std::vector<Meeting>& got, const std::vector<Meeting>& want,
                          const char* label, std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << label << " seed=" << seed;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].room, want[i].room) << label << " seed=" << seed << " meeting " << i;
    EXPECT_EQ(got[i].start_s, want[i].start_s) << label << " seed=" << seed << " meeting " << i;
    EXPECT_EQ(got[i].end_s, want[i].end_s) << label << " seed=" << seed << " meeting " << i;
    EXPECT_EQ(got[i].participants, want[i].participants)
        << label << " seed=" << seed << " meeting " << i;
  }
}

class MeetingsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeetingsProperty, FastMatchesOracle) {
  Rng rng(GetParam());
  // Mix of param regimes: the defaults and a tight grace/short-meeting
  // setting that makes bridging and merging fire often.
  const MeetingParams params = GetParam() % 2 == 0
                                   ? MeetingParams{}
                                   : MeetingParams{/*min_duration_s=*/30.0, /*grace_s=*/10.0};
  for (int trial = 0; trial < 8; ++trial) {
    const double t0 = rng.uniform(0.0, 1000.0);
    const double t1 = t0 + rng.uniform(600.0, 3600.0);
    const auto crew = static_cast<std::size_t>(rng.uniform_int(2, 6));
    std::vector<std::vector<RoomStay>> tracks;
    tracks.reserve(crew);
    for (std::size_t i = 0; i < crew; ++i) tracks.push_back(random_track(rng, t0, t1));

    const auto want = oracle_meetings(tracks, t0, t1, params);
    auto fast = detect_meetings(tracks, t0, t1, params);

    // Invariants before canonicalization: output sorted by start,
    // participants sorted and unique, duration above the floor, bounds
    // inside the window.
    for (std::size_t i = 1; i < fast.size(); ++i) {
      EXPECT_LE(fast[i - 1].start_s, fast[i].start_s);
    }
    for (const auto& m : fast) {
      EXPECT_TRUE(std::is_sorted(m.participants.begin(), m.participants.end()));
      EXPECT_TRUE(std::adjacent_find(m.participants.begin(), m.participants.end()) ==
                  m.participants.end());
      EXPECT_GE(m.participants.size(), 2u);
      EXPECT_GE(m.duration_s(), params.min_duration_s);
      EXPECT_GE(m.start_s, t0);
      EXPECT_LE(m.end_s, t1);
      EXPECT_NE(m.room, RoomId::kHangar);
      EXPECT_NE(m.room, RoomId::kNone);
    }

    sort_canonical(fast);
    expect_same_meetings(fast, want, "fast vs oracle", GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeetingsProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u));

TEST(MeetingsPropertyEdge, EmptyWindowAndEmptyCrew) {
  const std::vector<std::vector<RoomStay>> none;
  EXPECT_TRUE(detect_meetings(none, 0.0, 1000.0).empty());
  const std::vector<std::vector<RoomStay>> two(2);
  EXPECT_TRUE(detect_meetings(two, 500.0, 500.0).empty());
  EXPECT_TRUE(detect_meetings(two, 500.0, 100.0).empty());  // inverted window
}

// Hand-written fixtures: a shared stay then a split, a pair beside a
// loner, a sub-grace exit, two rooms meeting at once, an empty crew.
TEST(MeetingsPropertyEdge, HandFixturesMatchOracle) {
  const std::vector<std::vector<std::vector<RoomStay>>> fixtures{
      {{{RoomId::kKitchen, 0.0, 120.0}},
       {{RoomId::kKitchen, 0.0, 60.0}, {RoomId::kOffice, 60.0, 120.0}}},
      {{{RoomId::kKitchen, 100.0, 400.0}},
       {{RoomId::kKitchen, 100.0, 400.0}},
       {{RoomId::kOffice, 0.0, 500.0}}},
      {{{RoomId::kKitchen, 0.0, 600.0}},
       {{RoomId::kKitchen, 0.0, 280.0}, {RoomId::kKitchen, 300.0, 600.0}}},
      {{{RoomId::kKitchen, 0.0, 300.0}},
       {{RoomId::kKitchen, 0.0, 300.0}},
       {{RoomId::kOffice, 0.0, 300.0}},
       {{RoomId::kOffice, 0.0, 300.0}}},
      {},
  };
  for (std::size_t f = 0; f < fixtures.size(); ++f) {
    auto fast = detect_meetings(fixtures[f], 0.0, 600.0);
    sort_canonical(fast);
    expect_same_meetings(fast, oracle_meetings(fixtures[f], 0.0, 600.0, MeetingParams{}),
                         "fixture", f);
  }
}

// ------------------------------------------------------------ meeting dynamics

/// Brute-force meeting dynamics. Slots are the distinct starts of the
/// participants' 15 s intervals that overlap the meeting, in ascending
/// order. A slot is speech when any participant's interval there is; its
/// speaker is the first participant (in participant order) with the
/// loudest voiced level among those that spoke, and its loudness is that
/// level. Talk shares are the speakers' slot counts over all speech slots.
MeetingDynamics oracle_dynamics(const Meeting& m,
                                const std::vector<std::vector<dsp::SpeechInterval>>& speech) {
  auto overlaps = [&m](const dsp::SpeechInterval& iv) {
    return iv.start_s + 15.0 > m.start_s && iv.start_s < m.end_s;
  };
  std::vector<double> slots;
  for (const std::size_t who : m.participants) {
    if (who >= speech.size()) continue;
    for (const auto& iv : speech[who]) {
      if (overlaps(iv) && std::find(slots.begin(), slots.end(), iv.start_s) == slots.end()) {
        slots.push_back(iv.start_s);
      }
    }
  }
  std::sort(slots.begin(), slots.end());

  MeetingDynamics dyn;
  dyn.talk_share.assign(m.participants.size(), 0.0);
  std::size_t speech_slots = 0;
  double loud_sum = 0.0;
  for (const double slot : slots) {
    bool spoke = false;
    std::size_t speaker = 0;
    double loudest = 0.0;
    for (std::size_t pi = 0; pi < m.participants.size(); ++pi) {
      const std::size_t who = m.participants[pi];
      if (who >= speech.size()) continue;
      for (const auto& iv : speech[who]) {
        if (iv.start_s != slot || !overlaps(iv) || !iv.speech) continue;
        if (!spoke || iv.mean_voiced_db > loudest) {
          speaker = pi;
          loudest = iv.mean_voiced_db;
        }
        spoke = true;
      }
    }
    if (!spoke) continue;
    ++speech_slots;
    loud_sum += loudest;
    dyn.talk_share[speaker] += 1.0;
  }
  if (!slots.empty()) {
    dyn.speech_fraction = static_cast<double>(speech_slots) / static_cast<double>(slots.size());
  }
  if (speech_slots > 0) {
    dyn.mean_loudness_db = loud_sum / static_cast<double>(speech_slots);
    for (double& share : dyn.talk_share) share /= static_cast<double>(speech_slots);
  }
  return dyn;
}

void expect_same_dynamics(const MeetingDynamics& got, const MeetingDynamics& want,
                          std::uint64_t seed, int trial) {
  EXPECT_EQ(got.speech_fraction, want.speech_fraction) << "seed=" << seed << " trial " << trial;
  EXPECT_EQ(got.mean_loudness_db, want.mean_loudness_db) << "seed=" << seed << " trial " << trial;
  EXPECT_EQ(got.talk_share, want.talk_share) << "seed=" << seed << " trial " << trial;
}

/// Random time-sorted 15 s intervals on the shared grid between t0 and
/// t1, with gaps, silent intervals, and coarse loudness steps so that two
/// badges often tie for the loudest.
std::vector<dsp::SpeechInterval> random_intervals(Rng& rng, double t0, double t1) {
  std::vector<dsp::SpeechInterval> out;
  if (rng.uniform() < 0.1) return out;  // badge heard nothing
  for (double t = t0; t < t1; t += 15.0) {
    if (rng.uniform() < 0.25) continue;  // badge off / no frames
    dsp::SpeechInterval iv;
    iv.start_s = t;
    iv.total_frames = 15;
    iv.speech = rng.uniform() < 0.6;
    iv.mean_voiced_db = 55.0 + 2.5 * static_cast<double>(rng.uniform_int(0, 8));
    iv.voiced_frames = iv.speech ? 8 : 1;
    out.push_back(iv);
  }
  return out;
}

class MeetingDynamicsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeetingDynamicsProperty, FastMatchesOracle) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const auto crew = static_cast<std::size_t>(rng.uniform_int(1, 6));
    std::vector<std::vector<dsp::SpeechInterval>> speech;
    for (std::size_t i = 0; i < crew; ++i) speech.push_back(random_intervals(rng, 0.0, 1800.0));
    Meeting m;
    // Meeting bounds off the 15 s grid, so edge intervals half-overlap.
    m.start_s = rng.uniform(0.0, 900.0);
    m.end_s = m.start_s + rng.uniform(0.0, 900.0);
    for (std::size_t i = 0; i < crew + 1; ++i) {
      // crew + 1 lets a participant index fall past the speech table.
      if (rng.uniform() < 0.6) m.participants.push_back(i);
    }
    expect_same_dynamics(analyze_meeting(m, speech), oracle_dynamics(m, speech), GetParam(),
                         trial);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeetingDynamicsProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Contested slots by hand: astronaut 2 is loudest for the second half,
// astronaut 0 ties the speaker on one slot (the first in participant
// order keeps it), and an all-silent table.
TEST(MeetingDynamicsEdge, ContestedSlotsMatchOracle) {
  Meeting m;
  m.room = RoomId::kKitchen;
  m.start_s = 0.0;
  m.end_s = 300.0;
  m.participants = {0, 1, 2};
  std::vector<std::vector<dsp::SpeechInterval>> speech(3);
  for (double t = 0.0; t < 300.0; t += 15.0) {
    for (std::size_t i = 0; i < 3; ++i) {
      dsp::SpeechInterval iv;
      iv.start_s = t;
      iv.total_frames = 15;
      iv.voiced_frames = 8;
      iv.speech = true;
      iv.mean_voiced_db = i == 1 ? 70.0 : 60.0;
      speech[i].push_back(iv);
    }
  }
  for (std::size_t s = speech[2].size() / 2; s < speech[2].size(); ++s) {
    speech[2][s].mean_voiced_db = 80.0;
  }
  speech[0][3].mean_voiced_db = speech[1][3].mean_voiced_db;
  for (const auto& sp : {speech, std::vector<std::vector<dsp::SpeechInterval>>(3)}) {
    expect_same_dynamics(analyze_meeting(m, sp), oracle_dynamics(m, sp), 0, 0);
  }
  const auto dyn = analyze_meeting(m, speech);
  EXPECT_EQ(dyn.talk_share[0], 1.0 / 20.0);  // the tied slot
  EXPECT_EQ(dyn.talk_share[2], 10.0 / 20.0);
}

}  // namespace
}  // namespace hs::sna
