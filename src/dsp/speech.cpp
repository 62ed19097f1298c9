#include "dsp/speech.hpp"

#include <cmath>
#include <map>

#include "util/simd.hpp"

namespace hs::dsp {

std::vector<SpeechInterval> SpeechDetector::analyze(const double* t_s, const float* level_db,
                                                    const float* voiced_fraction,
                                                    const float* f0_hz, std::size_t n,
                                                    double t0_s) const {
  std::vector<SpeechInterval> out;
  if (n == 0) return out;

  // The voiced-frame predicate as a branch-free SIMD mask (the exact
  // kernel widens floats to double before comparing).
  std::vector<std::uint8_t> voiced(n);
  util::simd::mask_ge2(voiced_fraction, level_db, n, params_.min_voiced_fraction,
                       params_.min_level_db, voiced.data());

  SpeechInterval cur;
  std::int64_t cur_slot = -1;
  double voiced_db_sum = 0.0;
  std::map<int, int> f0_votes;  // quantized f0 -> votes, for the dominant f0

  auto flush = [&]() {
    if (cur_slot < 0 || cur.total_frames == 0) return;
    const double coverage =
        static_cast<double>(cur.voiced_frames) /
        (params_.interval_s);  // frames are 1 s: coverage == voiced seconds / interval
    cur.speech = coverage >= params_.min_coverage && cur.voiced_frames > 0;
    cur.mean_voiced_db = cur.voiced_frames > 0 ? voiced_db_sum / cur.voiced_frames : 0.0;
    int best_votes = 0;
    int best_f0 = 0;
    for (const auto& [f0, votes] : f0_votes) {
      if (votes > best_votes) {
        best_votes = votes;
        best_f0 = f0;
      }
    }
    cur.dominant_f0_hz = static_cast<double>(best_f0);
    out.push_back(cur);
  };

  for (std::size_t i = 0; i < n; ++i) {
    const auto slot = static_cast<std::int64_t>(std::floor((t_s[i] - t0_s) / params_.interval_s));
    if (slot != cur_slot) {
      flush();
      cur = SpeechInterval{};
      cur.start_s = t0_s + static_cast<double>(slot) * params_.interval_s;
      cur_slot = slot;
      voiced_db_sum = 0.0;
      f0_votes.clear();
    }
    ++cur.total_frames;
    if (voiced[i] != 0) {
      ++cur.voiced_frames;
      voiced_db_sum += level_db[i];
      if (f0_hz[i] > 0.0F) {
        // Quantize to 10 Hz bins: male ~85-155 Hz, female ~165-255 Hz.
        ++f0_votes[static_cast<int>(std::lround(f0_hz[i] / 10.0F)) * 10];
      }
    }
  }
  flush();
  return out;
}

VoiceClass dominant_voice_class(const std::vector<SpeechInterval>& intervals) {
  int male = 0;
  int female = 0;
  for (const auto& iv : intervals) {
    if (!iv.speech || iv.dominant_f0_hz <= 0.0) continue;
    switch (classify_voice(iv.dominant_f0_hz)) {
      case VoiceClass::kMale:
        ++male;
        break;
      case VoiceClass::kFemale:
        ++female;
        break;
      case VoiceClass::kUnknown:
        break;
    }
  }
  if (male == 0 && female == 0) return VoiceClass::kUnknown;
  return male >= female ? VoiceClass::kMale : VoiceClass::kFemale;
}

double SpeechDetector::speech_fraction(const std::vector<SpeechInterval>& intervals) {
  if (intervals.empty()) return 0.0;
  std::size_t speech = 0;
  for (const auto& iv : intervals) {
    if (iv.speech) ++speech;
  }
  return static_cast<double>(speech) / static_cast<double>(intervals.size());
}

}  // namespace hs::dsp
