// Golden digests of the analysis pipeline's outputs.
//
// Every artifact the paper reports (Figs. 2-6, Table I, the Section V
// statistics, pair findings, meetings and their dynamics, the voice
// census, the gap report) plus the per-astronaut tracks and speech
// intervals is folded into one FNV-1a 64 digest per artifact, over the
// exact bit patterns of its values. A checked-in file of `name digest`
// lines pins them: any change to any value of any artifact changes its
// digest, and the failure names the artifact.
//
// Digests cover artifacts only — never the metrics or trace dumps — so
// they hold in the HS_OBS_ENABLED=OFF build too.
//
// Regenerate a golden file only when a change is meant to move the
// analysis output: run the test that checks it with HS_WRITE_GOLDEN=1 in
// the environment and it rewrites the file instead of comparing.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hpp"

namespace hs::core::golden {

/// FNV-1a 64 over 8-byte little-endian words.
class Digest {
 public:
  Digest& u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xFFU;
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Digest& f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }
  Digest& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Ordered `artifact name -> digest` table.
using Digests = std::vector<std::pair<std::string, std::string>>;

inline void add_series(Digest& d, const AnalysisPipeline::DailySeries& s) {
  d.i64(s.first_day).u64(s.values.size());
  for (const auto& row : s.values) {
    for (double v : row) d.f64(v);
  }
}

inline void add_meeting(Digest& d, const sna::Meeting& m) {
  d.i64(static_cast<std::int64_t>(m.room)).f64(m.start_s).f64(m.end_s).u64(m.participants.size());
  for (std::size_t p : m.participants) d.u64(p);
}

/// Digest every artifact of `p`. `fig5_day` picks the Fig. 5 timeline
/// day; meetings and their dynamics are digested for every mission day.
inline Digests analysis_digests(const AnalysisPipeline& p, int fig5_day) {
  Digests out;
  auto put = [&out](std::string name, const Digest& d) { out.emplace_back(std::move(name), d.hex()); };

  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    Digest track;
    track.u64(p.track(i).size());
    for (const auto& s : p.track(i)) {
      track.i64(static_cast<std::int64_t>(s.room)).f64(s.start_s).f64(s.end_s);
    }
    put("track." + std::to_string(i), track);
    Digest speech;
    speech.u64(p.speech_intervals(i).size());
    for (const auto& iv : p.speech_intervals(i)) {
      speech.f64(iv.start_s).u64(iv.speech ? 1 : 0).f64(iv.mean_voiced_db).f64(iv.dominant_f0_hz);
      speech.u64(iv.voiced_frames).u64(iv.total_frames);
    }
    put("speech." + std::to_string(i), speech);
  }

  const auto a = p.artifacts();
  {
    Digest d;
    for (const auto& row : a.fig2.counts()) {
      for (int c : row) d.i64(c);
    }
    put("fig2", d);
  }
  for (std::size_t i = 0; i < a.fig3.size(); ++i) {
    Digest d;
    d.f64(a.fig3[i].total_seconds());
    for (const auto& row : a.fig3[i].grid_rows()) {
      d.u64(row.size());
      for (double v : row) d.f64(v);
    }
    put("fig3." + std::to_string(i), d);
  }
  {
    Digest d;
    add_series(d, a.fig4);
    put("fig4", d);
  }
  {
    Digest d;
    for (const auto& crew_bins : p.fig5_timeline(fig5_day)) {
      d.u64(crew_bins.size());
      for (const auto& bin : crew_bins) {
        d.f64(bin.start_s).i64(static_cast<std::int64_t>(bin.room)).f64(bin.speech_fraction);
        d.f64(bin.loudness_db);
      }
    }
    put("fig5.day" + std::to_string(fig5_day), d);
  }
  {
    Digest d;
    add_series(d, a.fig6);
    put("fig6", d);
  }
  {
    Digest d;
    for (const auto& r : a.table1) {
      d.i64(r.id).u64(r.has_social ? 1 : 0).f64(r.company).f64(r.authority).f64(r.talking);
      d.f64(r.walking);
    }
    put("table1", d);
  }
  {
    Digest d;
    d.f64(a.dataset.total_gib).f64(a.dataset.worn_of_daytime).f64(a.dataset.active_of_daytime);
    d.u64(a.dataset.worn_by_day.size());
    for (double v : a.dataset.worn_by_day) d.f64(v);
    d.u64(a.dataset.total_records);
    put("dataset", d);
  }
  {
    Digest d;
    d.f64(a.dwell.typical_biolab_h).f64(a.dwell.typical_office_h).f64(a.dwell.typical_workshop_h);
    put("dwell", d);
  }
  {
    Digest d;
    d.f64(a.pairs.af_private_h).f64(a.pairs.de_private_h).f64(a.pairs.af_meetings_h);
    d.f64(a.pairs.de_meetings_h);
    put("pairs", d);
  }
  {
    Digest d;
    d.f64(a.survey.wellbeing_speech_corr).f64(a.survey.comfort_slope_per_day);
    d.u64(a.survey.responses);
    put("survey", d);
  }

  const Dataset& data = p.dataset();
  for (int day = data.first_day(); day <= data.last_day(); ++day) {
    const auto meetings = p.meetings_on(day);
    Digest m;
    Digest dyn;
    m.u64(meetings.size());
    for (const auto& meeting : meetings) {
      add_meeting(m, meeting);
      const auto md = p.meeting_dynamics(meeting);
      dyn.f64(md.speech_fraction).f64(md.mean_loudness_db).u64(md.talk_share.size());
      for (double s : md.talk_share) dyn.f64(s);
    }
    put("meetings.day" + std::to_string(day), m);
    put("dynamics.day" + std::to_string(day), dyn);
  }
  {
    Digest d;
    for (const auto v : p.voice_census()) d.i64(static_cast<std::int64_t>(v));
    put("voice_census", d);
  }
  {
    const auto gaps = p.gap_report();
    Digest d;
    d.u64(gaps.badges.size()).u64(gaps.total_dropped).u64(gaps.total_truncated);
    for (const auto& g : gaps.badges) {
      d.u64(g.id).u64(g.records).u64(g.dropped_records).u64(g.truncated_records);
      d.u64(g.sync_samples).f64(g.fit_residual_ms).u64(g.fit_stepped ? 1 : 0);
      d.f64(g.recorded_active_s).f64(g.longest_gap_s);
    }
    put("gap_report", d);
  }
  return out;
}

inline std::string golden_path(const std::string& file) {
  return std::string(HS_GOLDEN_DIR) + "/" + file;
}

/// Compare `got` with the golden file (or rewrite the file when
/// HS_WRITE_GOLDEN is set). Each mismatching artifact fails by name.
inline void expect_golden(const std::string& file, const Digests& got) {
  const std::string path = golden_path(file);
  if (const char* w = std::getenv("HS_WRITE_GOLDEN"); w != nullptr && *w != '\0') {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << "# analysis artifact digests (tests/analysis_digest.hpp); "
           "regenerate with HS_WRITE_GOLDEN=1\n";
    for (const auto& [name, hex] : got) out << name << ' ' << hex << '\n';
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::map<std::string, std::string> want;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string hex;
    fields >> name >> hex;
    want[name] = hex;
  }
  EXPECT_EQ(want.size(), got.size()) << path;
  for (const auto& [name, hex] : got) {
    const auto it = want.find(name);
    if (it == want.end()) {
      ADD_FAILURE() << path << ": no golden digest for " << name;
      continue;
    }
    EXPECT_EQ(hex, it->second) << path << ": artifact " << name << " changed";
  }
}

}  // namespace hs::core::golden
