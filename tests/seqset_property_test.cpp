// Property-style tests for mesh::SeqSet, the version-vector primitive
// gossip convergence rests on. A SeqSet is semantically a set of u32s
// (stored as a dense prefix plus sparse extras); merge() is set union.
// Convergence in any exchange order requires union's algebra — commutative,
// associative, idempotent — so this suite drives randomized insert/merge
// sequences against a std::set reference model and checks those laws
// directly, across seeds, rather than hand-picking cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "mesh/gossip.hpp"
#include "util/rng.hpp"

namespace hs::mesh {
namespace {

/// Everything a SeqSet claims to hold, via the public API.
std::set<std::uint32_t> materialize(const SeqSet& s) {
  std::set<std::uint32_t> out;
  for (std::uint32_t v = 0; v < s.next(); ++v) out.insert(v);
  out.insert(s.extras().begin(), s.extras().end());
  return out;
}

/// Random SeqSet + the reference model it must agree with. Sequence
/// numbers are drawn from a small range so prefix absorption (inserting
/// the value that closes a gap) happens often.
std::pair<SeqSet, std::set<std::uint32_t>> random_set(Rng& rng, int inserts, int range) {
  SeqSet s;
  std::set<std::uint32_t> model;
  for (int i = 0; i < inserts; ++i) {
    const auto v = static_cast<std::uint32_t>(rng.uniform_int(0, range - 1));
    const bool fresh = model.insert(v).second;
    EXPECT_EQ(s.insert(v), fresh) << "insert(" << v << ") disagreed with the model";
  }
  return {s, model};
}

SeqSet random_seqset(Rng& rng, int inserts, int range) {
  return random_set(rng, inserts, range).first;
}

TEST(SeqSetPropertyTest, RandomInsertsMatchReferenceModel) {
  for (const std::uint64_t seed : {7ULL, 42ULL, 1234ULL, 0xdeadULL}) {
    Rng rng(seed);
    for (int round = 0; round < 50; ++round) {
      auto [s, model] = random_set(rng, 120, 80);
      EXPECT_EQ(materialize(s), model) << "seed " << seed << " round " << round;
      EXPECT_EQ(s.size(), model.size());
      for (std::uint32_t v = 0; v < 90; ++v) {
        EXPECT_EQ(s.contains(v), model.count(v) > 0) << "seed " << seed << " value " << v;
      }
      // The dense prefix is maximal: next() is the first absent value.
      EXPECT_FALSE(s.contains(s.next()));
      // Extras all sit past the prefix (the representation invariant).
      for (const std::uint32_t e : s.extras()) EXPECT_GE(e, s.next());
    }
  }
}

TEST(SeqSetPropertyTest, MergeMatchesSetUnion) {
  for (const std::uint64_t seed : {7ULL, 42ULL, 99ULL}) {
    Rng rng(seed);
    for (int round = 0; round < 50; ++round) {
      auto [a, ma] = random_set(rng, 60, 64);
      auto [b, mb] = random_set(rng, 60, 64);

      std::set<std::uint32_t> expect = ma;
      expect.insert(mb.begin(), mb.end());

      SeqSet merged = a;
      const std::size_t added = merged.merge(b);
      EXPECT_EQ(materialize(merged), expect);
      EXPECT_EQ(added, expect.size() - ma.size());
    }
  }
}

TEST(SeqSetPropertyTest, MergeIsCommutative) {
  Rng rng(42);
  for (int round = 0; round < 100; ++round) {
    const SeqSet a = random_seqset(rng, 50, 48);
    const SeqSet b = random_seqset(rng, 50, 48);
    SeqSet ab = a;
    ab.merge(b);
    SeqSet ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba) << "round " << round;
  }
}

TEST(SeqSetPropertyTest, MergeIsAssociative) {
  Rng rng(7);
  for (int round = 0; round < 100; ++round) {
    const SeqSet a = random_seqset(rng, 40, 40);
    const SeqSet b = random_seqset(rng, 40, 40);
    const SeqSet c = random_seqset(rng, 40, 40);
    SeqSet left = a;  // (a ∪ b) ∪ c
    left.merge(b);
    left.merge(c);
    SeqSet bc = b;  // a ∪ (b ∪ c)
    bc.merge(c);
    SeqSet right = a;
    right.merge(bc);
    EXPECT_EQ(left, right) << "round " << round;
  }
}

TEST(SeqSetPropertyTest, MergeIsIdempotent) {
  Rng rng(1234);
  for (int round = 0; round < 100; ++round) {
    const SeqSet a = random_seqset(rng, 60, 56);
    SeqSet twice = a;
    EXPECT_EQ(twice.merge(a), 0U) << "self-merge must add nothing";
    EXPECT_EQ(twice, a);
    const SeqSet b = random_seqset(rng, 60, 56);
    SeqSet once = a;
    once.merge(b);
    SeqSet again = once;
    EXPECT_EQ(again.merge(b), 0U) << "re-merging the same set must add nothing";
    EXPECT_EQ(again, once);
  }
}

TEST(SeqSetPropertyTest, MergeAgreesWithMissingFrom) {
  // merge() walks the seqs missing_from() lists; check the other
  // direction too: after a merge, nothing is missing either way between
  // the merged set and the union's other operand.
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    const SeqSet a = random_seqset(rng, 50, 48);
    const SeqSet b = random_seqset(rng, 50, 48);
    SeqSet merged = a;
    merged.merge(b);
    EXPECT_TRUE(b.missing_from(merged).empty());
    EXPECT_TRUE(a.missing_from(merged).empty());
  }
}

TEST(SeqSetPropertyTest, MissingWalkToleratesInsertsIntoTheOtherSet) {
  // The gossip pull inserts each visited seq into the set it diffs
  // against while the walk is running, unless the source holds no copy of
  // that chunk. The walk must still visit exactly what missing_from()
  // returned before it started, in the same order.
  Rng rng(1234);
  for (int round = 0; round < 200; ++round) {
    const SeqSet src = random_seqset(rng, 70, 64);
    SeqSet dst = random_seqset(rng, 40, 64);
    const std::vector<std::uint32_t> want = src.missing_from(dst);
    std::vector<std::uint32_t> visited;
    src.for_each_missing_from(dst, [&](std::uint32_t s) {
      visited.push_back(s);
      if (rng.uniform() < 0.8) {
        EXPECT_TRUE(dst.insert(s));
      }
    });
    EXPECT_EQ(visited, want);
  }
}

}  // namespace
}  // namespace hs::mesh
