// Unit tests for social-network analysis: co-presence, HITS, meetings.
#include <gtest/gtest.h>

#include <cmath>

#include "sna/copresence.hpp"
#include "sna/hits.hpp"
#include "sna/meetings.hpp"

namespace hs::sna {
namespace {

using habitat::RoomId;
using locate::RoomStay;

std::vector<std::vector<RoomStay>> two_person_tracks() {
  // 0 and 1 share the kitchen for 60 s, then 1 moves to the office.
  return {
      {{RoomId::kKitchen, 0.0, 120.0}},
      {{RoomId::kKitchen, 0.0, 60.0}, {RoomId::kOffice, 60.0, 120.0}},
  };
}

TEST(Company, PairSecondsCounted) {
  CompanyAnalysis company(2);
  company.accumulate(two_person_tracks(), 0.0, 120.0);
  EXPECT_NEAR(company.pair_seconds(0, 1), 60.0, 1.5);
  EXPECT_EQ(company.pair_seconds(0, 1), company.pair_seconds(1, 0));
  EXPECT_EQ(company.pair_seconds(0, 0), 0.0);
}

TEST(Company, CompanySecondsPerPerson) {
  CompanyAnalysis company(2);
  company.accumulate(two_person_tracks(), 0.0, 120.0);
  EXPECT_NEAR(company.company_seconds(0), 60.0, 1.5);
  EXPECT_NEAR(company.company_seconds(1), 60.0, 1.5);
}

TEST(Company, CoverageTracked) {
  CompanyAnalysis company(2);
  company.accumulate(two_person_tracks(), 0.0, 120.0);
  EXPECT_NEAR(company.covered_seconds(0), 120.0, 1.5);
  EXPECT_NEAR(company.covered_seconds(1), 120.0, 1.5);
}

TEST(Company, AccumulateDisjointWindows) {
  CompanyAnalysis company(2);
  const auto tracks = two_person_tracks();
  company.accumulate(tracks, 0.0, 30.0);
  company.accumulate(tracks, 30.0, 60.0);
  EXPECT_NEAR(company.pair_seconds(0, 1), 60.0, 2.0);
}

TEST(Company, ThreeWayRoomCountsAllPairs) {
  std::vector<std::vector<RoomStay>> tracks{
      {{RoomId::kKitchen, 0.0, 100.0}},
      {{RoomId::kKitchen, 0.0, 100.0}},
      {{RoomId::kKitchen, 0.0, 100.0}},
  };
  CompanyAnalysis company(3);
  company.accumulate(tracks, 0.0, 100.0);
  const auto m = company.pair_matrix();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      EXPECT_NEAR(m[i][j], 100.0, 1.0);
    }
  }
}

// --------------------------------------------------------------------- HITS

TEST(Hits, EmptyGraph) {
  const auto scores = hits({});
  EXPECT_TRUE(scores.authority.empty());
}

TEST(Hits, ZeroMatrixGivesZeroScores) {
  const auto scores = hits({{0.0, 0.0}, {0.0, 0.0}});
  EXPECT_EQ(scores.authority[0], 0.0);
  EXPECT_EQ(scores.authority[1], 0.0);
}

TEST(Hits, StarCenterDominatesSymmetricGraph) {
  // Node 0 connected to everyone; leaves connected only to 0.
  std::vector<std::vector<double>> adj(4, std::vector<double>(4, 0.0));
  for (std::size_t leaf = 1; leaf < 4; ++leaf) {
    adj[0][leaf] = adj[leaf][0] = 1.0;
  }
  const auto scores = hits(adj);
  EXPECT_DOUBLE_EQ(scores.authority[0], 1.0);
  for (std::size_t leaf = 1; leaf < 4; ++leaf) {
    EXPECT_LT(scores.authority[leaf], 1.0);
    EXPECT_GT(scores.authority[leaf], 0.0);
  }
}

TEST(Hits, WeightsMatter) {
  // 0-1 heavy edge, 0-2 light edge: 1 outranks 2.
  std::vector<std::vector<double>> adj(3, std::vector<double>(3, 0.0));
  adj[0][1] = adj[1][0] = 10.0;
  adj[0][2] = adj[2][0] = 1.0;
  const auto scores = hits(adj);
  EXPECT_GT(scores.authority[1], scores.authority[2]);
}

TEST(Hits, DirectedAuthorityVsHub) {
  // 0 and 1 both point to 2: 2 is the authority, 0/1 are hubs.
  std::vector<std::vector<double>> adj(3, std::vector<double>(3, 0.0));
  adj[0][2] = 1.0;
  adj[1][2] = 1.0;
  const auto scores = hits(adj);
  EXPECT_DOUBLE_EQ(scores.authority[2], 1.0);
  EXPECT_DOUBLE_EQ(scores.hub[0], 1.0);
  EXPECT_DOUBLE_EQ(scores.hub[1], 1.0);
  EXPECT_LT(scores.authority[0], 1e-9);
}

TEST(Hits, Converges) {
  std::vector<std::vector<double>> adj(5, std::vector<double>(5, 1.0));
  const auto scores = hits(adj);
  EXPECT_LT(scores.iterations, 50);
  EXPECT_LT(scores.residual, 1e-10);
}

// ------------------------------------------------------------------ meetings

TEST(Meetings, DetectsSharedStay) {
  std::vector<std::vector<RoomStay>> tracks{
      {{RoomId::kKitchen, 100.0, 400.0}},
      {{RoomId::kKitchen, 100.0, 400.0}},
      {{RoomId::kOffice, 0.0, 500.0}},
  };
  const auto meetings = detect_meetings(tracks, 0.0, 500.0);
  ASSERT_EQ(meetings.size(), 1u);
  EXPECT_EQ(meetings[0].room, RoomId::kKitchen);
  EXPECT_EQ(meetings[0].participants, (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(meetings[0].is_private());
  EXPECT_NEAR(meetings[0].duration_s(), 300.0, 5.0);
}

TEST(Meetings, ShortGatheringIgnored) {
  std::vector<std::vector<RoomStay>> tracks{
      {{RoomId::kKitchen, 100.0, 160.0}},  // one minute < 120 s default
      {{RoomId::kKitchen, 100.0, 160.0}},
  };
  EXPECT_TRUE(detect_meetings(tracks, 0.0, 300.0).empty());
}

TEST(Meetings, GraceBridgesBriefExit) {
  std::vector<std::vector<RoomStay>> tracks{
      {{RoomId::kKitchen, 0.0, 600.0}},
      {{RoomId::kKitchen, 0.0, 280.0}, {RoomId::kKitchen, 300.0, 600.0}},  // 20 s out
  };
  const auto meetings = detect_meetings(tracks, 0.0, 600.0);
  ASSERT_EQ(meetings.size(), 1u);
  EXPECT_NEAR(meetings[0].duration_s(), 600.0, 5.0);
}

TEST(Meetings, TransientVisitorNotAParticipant) {
  std::vector<std::vector<RoomStay>> tracks{
      {{RoomId::kKitchen, 0.0, 1000.0}},
      {{RoomId::kKitchen, 0.0, 1000.0}},
      {{RoomId::kKitchen, 0.0, 100.0}},  // pops in for 10% of the meeting
  };
  const auto meetings = detect_meetings(tracks, 0.0, 1000.0);
  ASSERT_EQ(meetings.size(), 1u);
  EXPECT_EQ(meetings[0].participants.size(), 2u);
}

TEST(Meetings, SeparateRoomsSeparateMeetings) {
  std::vector<std::vector<RoomStay>> tracks{
      {{RoomId::kKitchen, 0.0, 300.0}},
      {{RoomId::kKitchen, 0.0, 300.0}},
      {{RoomId::kOffice, 0.0, 300.0}},
      {{RoomId::kOffice, 0.0, 300.0}},
  };
  const auto meetings = detect_meetings(tracks, 0.0, 300.0);
  EXPECT_EQ(meetings.size(), 2u);
}

TEST(Meetings, InvolvesQuery) {
  Meeting m;
  m.participants = {1, 3};
  EXPECT_TRUE(m.involves(3));
  EXPECT_FALSE(m.involves(2));
}

// ------------------------------------------------------------ meeting dynamics

std::vector<std::vector<dsp::SpeechInterval>> speech_for(
    std::size_t crew, std::size_t speaker, double start, double end, double db) {
  std::vector<std::vector<dsp::SpeechInterval>> out(crew);
  for (double t = start; t < end; t += 15.0) {
    for (std::size_t i = 0; i < crew; ++i) {
      dsp::SpeechInterval iv;
      iv.start_s = t;
      iv.total_frames = 15;
      iv.speech = true;
      // The speaker's own badge hears the loudest signal.
      iv.mean_voiced_db = i == speaker ? db + 10.0 : db;
      iv.voiced_frames = 8;
      out[i].push_back(iv);
    }
  }
  return out;
}

TEST(MeetingDynamics, TalkShareAttributedToLoudestBadge) {
  Meeting m;
  m.room = RoomId::kKitchen;
  m.start_s = 0.0;
  m.end_s = 300.0;
  m.participants = {0, 1};
  const auto speech = speech_for(2, /*speaker=*/1, 0.0, 300.0, 60.0);
  const auto dyn = analyze_meeting(m, speech);
  EXPECT_NEAR(dyn.speech_fraction, 1.0, 1e-9);
  EXPECT_NEAR(dyn.talk_share[1], 1.0, 1e-9);
  EXPECT_NEAR(dyn.talk_share[0], 0.0, 1e-9);
}

TEST(MeetingDynamics, LoudnessAveraged) {
  Meeting m;
  m.room = RoomId::kKitchen;
  m.start_s = 0.0;
  m.end_s = 150.0;
  m.participants = {0, 1};
  const auto quiet = analyze_meeting(m, speech_for(2, 0, 0.0, 150.0, 50.0));
  const auto loud = analyze_meeting(m, speech_for(2, 0, 0.0, 150.0, 65.0));
  EXPECT_GT(loud.mean_loudness_db, quiet.mean_loudness_db + 10.0);
}

TEST(MeetingDynamics, NoSpeechIntervals) {
  Meeting m;
  m.participants = {0, 1};
  m.start_s = 0.0;
  m.end_s = 300.0;
  const auto dyn = analyze_meeting(m, std::vector<std::vector<dsp::SpeechInterval>>(2));
  EXPECT_EQ(dyn.speech_fraction, 0.0);
}

TEST(PairMeetingSeconds, FiltersPrivate) {
  Meeting private_m;
  private_m.participants = {0, 1};
  private_m.start_s = 0.0;
  private_m.end_s = 100.0;
  Meeting group_m;
  group_m.participants = {0, 1, 2};
  group_m.start_s = 200.0;
  group_m.end_s = 500.0;
  const std::vector<Meeting> meetings{private_m, group_m};
  EXPECT_DOUBLE_EQ(pair_meeting_seconds(meetings, 0, 1, true), 100.0);
  EXPECT_DOUBLE_EQ(pair_meeting_seconds(meetings, 0, 1, false), 400.0);
  EXPECT_DOUBLE_EQ(pair_meeting_seconds(meetings, 0, 2, false), 300.0);
}

}  // namespace
}  // namespace hs::sna
