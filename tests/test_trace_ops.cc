#include "sim/trace_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/rng.h"
#include "core/trace.h"

namespace clic {
namespace {

Trace TwoHintTrace(const std::string& name, PageId base) {
  Trace trace;
  trace.name = name;
  const HintSetId a = trace.hints->Intern(HintVector{0, {1}});
  const HintSetId b = trace.hints->Intern(HintVector{0, {2}});
  for (int i = 0; i < 6; ++i) {
    Request r;
    r.page = base + static_cast<PageId>(i % 3);
    r.hint_set = (i % 2) ? b : a;
    trace.requests.push_back(r);
  }
  return trace;
}

TEST(InjectNoiseHintsTest, ZeroTypesIsIdentity) {
  const Trace base = TwoHintTrace("base", 0);
  const Trace noisy = InjectNoiseHints(base, 0, 10, 1.0, 99);
  ASSERT_EQ(noisy.requests.size(), base.requests.size());
  // Deep copy, not an alias: same contents, distinct registry object.
  EXPECT_NE(noisy.hints.get(), base.hints.get());
  ASSERT_EQ(noisy.hints->size(), base.hints->size());
  for (std::size_t i = 0; i < base.requests.size(); ++i) {
    EXPECT_EQ(noisy.requests[i].hint_set, base.requests[i].hint_set);
    EXPECT_EQ(noisy.hints->Get(noisy.requests[i].hint_set),
              base.hints->Get(base.requests[i].hint_set));
  }
}

// Regression: with num_types <= 0 the result used to share the source
// trace's HintRegistry, so interning through one trace mutated the
// other. The registries must be independent.
TEST(InjectNoiseHintsTest, ZeroTypesDoesNotAliasRegistry) {
  const Trace base = TwoHintTrace("base", 0);
  const std::size_t base_sets = base.hints->size();
  Trace noisy = InjectNoiseHints(base, 0, 10, 1.0, 99);
  const HintSetId added = noisy.hints->Intern(HintVector{7, {42, 43}});
  EXPECT_EQ(added, base_sets);  // appended to the copy...
  EXPECT_EQ(noisy.hints->size(), base_sets + 1);
  EXPECT_EQ(base.hints->size(), base_sets);  // ...not to the source
  // And vice versa: interning through the source leaves the copy alone.
  base.hints->Intern(HintVector{9, {77}});
  EXPECT_EQ(noisy.hints->size(), base_sets + 1);
}

TEST(InjectNoiseHintsTest, AppendsAttributesAndMultipliesHintSets) {
  const Trace base = TwoHintTrace("base", 0);
  const Trace noisy = InjectNoiseHints(base, 2, 10, 1.0, 99);
  ASSERT_EQ(noisy.requests.size(), base.requests.size());
  EXPECT_GE(noisy.hints->size(), base.hints->size());
  for (std::size_t i = 0; i < base.requests.size(); ++i) {
    const HintVector& orig = base.hints->Get(base.requests[i].hint_set);
    const HintVector& got = noisy.hints->Get(noisy.requests[i].hint_set);
    ASSERT_EQ(got.attrs.size(), orig.attrs.size() + 2);
    for (std::size_t a = 0; a < orig.attrs.size(); ++a) {
      EXPECT_EQ(got.attrs[a], orig.attrs[a]);  // prefix preserved
    }
    // Pages and ops are untouched.
    EXPECT_EQ(noisy.requests[i].page, base.requests[i].page);
    EXPECT_EQ(noisy.requests[i].op, base.requests[i].op);
  }
}

TEST(InjectNoiseHintsTest, DeterministicInSeed) {
  const Trace base = TwoHintTrace("base", 0);
  const Trace n1 = InjectNoiseHints(base, 3, 10, 1.0, 1234);
  const Trace n2 = InjectNoiseHints(base, 3, 10, 1.0, 1234);
  const Trace n3 = InjectNoiseHints(base, 3, 10, 1.0, 4321);
  ASSERT_EQ(n1.requests.size(), n2.requests.size());
  bool any_difference_to_n3 = false;
  for (std::size_t i = 0; i < n1.requests.size(); ++i) {
    EXPECT_EQ(n1.hints->Get(n1.requests[i].hint_set),
              n2.hints->Get(n2.requests[i].hint_set));
    any_difference_to_n3 |=
        !(n1.hints->Get(n1.requests[i].hint_set) ==
          n3.hints->Get(n3.requests[i].hint_set));
  }
  EXPECT_TRUE(any_difference_to_n3) << "different seeds, same noise?";
}

/// The per-request loop InjectNoiseHints is defined by: copy the base
/// vector, append the draws, intern. The memoised implementation must
/// reproduce its requests, ids and registry exactly.
Trace ReferenceInjectNoiseHints(const Trace& base, int num_types,
                                int domain_size, double zipf_z,
                                std::uint64_t seed) {
  Trace out;
  out.name = base.name + "+noise" + std::to_string(num_types);
  Rng rng(seed);
  ZipfGenerator zipf(static_cast<std::uint64_t>(std::max(1, domain_size)),
                     zipf_z);
  for (const Request& r : base.requests) {
    HintVector v = base.hints->Get(r.hint_set);
    for (int t = 0; t < num_types; ++t) v.attrs.push_back(zipf(rng));
    Request nr = r;
    nr.hint_set = out.hints->Intern(std::move(v));
    out.requests.push_back(nr);
  }
  out.client_bound = base.client_bound;
  return out;
}

Trace ManyHintTrace() {
  Trace trace;
  trace.name = "many";
  Rng rng(77);
  for (std::uint32_t h = 0; h < 25; ++h) {
    trace.hints->Intern(
        HintVector{static_cast<ClientId>(h % 2), {h % 5, h / 5, h * 3}});
  }
  for (int i = 0; i < 60'000; ++i) {
    Request r;
    r.page = static_cast<PageId>(rng.Below(10'000));
    r.hint_set = static_cast<HintSetId>(rng.Below(25));
    r.client = static_cast<ClientId>(r.hint_set % 2);
    if (rng.Chance(0.25)) {
      r.op = OpType::kWrite;
      r.write_kind = WriteKind::kReplacement;
    }
    trace.requests.push_back(r);
  }
  trace.CacheMaxClient();
  return trace;
}

TEST(InjectNoiseHintsTest, MatchesPerRequestInterningReference) {
  const Trace base = ManyHintTrace();
  struct Setting {
    int types, domain;
    double z;
    std::uint64_t seed;
  };
  const Setting settings[] = {
      {1, 10, 1.0, 7},       {3, 10, 1.0, 2009},  // the Figure 10 shape
      {2, 1000, 0.5, 11},    {4, 50, 0.0, 12},
      {3, 0, 1.0, 5},        // domain clamps to 1: one tuple
      {20, 10, 1.0, 3},      // 25 * 10^20 keys: outside the memo
      {4, 1 << 16, 1.2, 4},  // 25 * 2^64 keys: outside the memo
  };
  for (const Setting& s : settings) {
    SCOPED_TRACE("types " + std::to_string(s.types) + " domain " +
                 std::to_string(s.domain) + " seed " + std::to_string(s.seed));
    const Trace got = InjectNoiseHints(base, s.types, s.domain, s.z, s.seed);
    const Trace want =
        ReferenceInjectNoiseHints(base, s.types, s.domain, s.z, s.seed);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.client_bound, want.client_bound);
    ASSERT_EQ(got.requests.size(), want.requests.size());
    for (std::size_t i = 0; i < want.requests.size(); ++i) {
      const Request& a = got.requests[i];
      const Request& b = want.requests[i];
      ASSERT_TRUE(a.page == b.page && a.hint_set == b.hint_set &&
                  a.client == b.client && a.op == b.op &&
                  a.write_kind == b.write_kind)
          << "request " << i;
    }
    ASSERT_EQ(got.hints->size(), want.hints->size());
    for (HintSetId h = 0; h < want.hints->size(); ++h) {
      ASSERT_EQ(got.hints->Get(h), want.hints->Get(h)) << "hint set " << h;
    }
  }
}

TEST(InterleaveTest, RoundRobinWithClientTagging) {
  const Trace t0 = TwoHintTrace("t0", 0);
  const Trace t1 = TwoHintTrace("t1", 100);
  const Trace merged = Interleave("merged", {&t0, &t1});
  ASSERT_EQ(merged.size(), t0.size() + t1.size());
  EXPECT_EQ(merged.name, "merged");
  // Round-robin: even positions client 0, odd positions client 1 (the
  // sources have equal length).
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged.requests[i].client, i % 2 == 0 ? 0 : 1);
  }
  // Hint vectors carry the source client id, so identical attribute
  // vectors from different clients stay distinct hint sets.
  std::set<HintSetId> client0_hints, client1_hints;
  for (const Request& r : merged.requests) {
    const HintVector& v = merged.hints->Get(r.hint_set);
    EXPECT_EQ(v.client, r.client);
    (r.client == 0 ? client0_hints : client1_hints).insert(r.hint_set);
  }
  for (HintSetId h : client0_hints) {
    EXPECT_EQ(client1_hints.count(h), 0u);
  }
}

TEST(InterleaveTest, UnevenSourcesDrainCompletely) {
  Trace small = TwoHintTrace("small", 0);
  small.requests.resize(2);
  const Trace big = TwoHintTrace("big", 50);
  const Trace merged = Interleave("m", {&small, &big});
  EXPECT_EQ(merged.size(), 2 + big.size());
  // Tail of the merge is all client 1.
  for (std::size_t i = 4; i < merged.size(); ++i) {
    EXPECT_EQ(merged.requests[i].client, 1);
  }
}

TEST(InterleaveTest, EmptySourceListYieldsEmptyTrace) {
  const Trace merged = Interleave("empty", {});
  EXPECT_EQ(merged.size(), 0u);
  EXPECT_EQ(merged.hints->size(), 0u);
  EXPECT_EQ(merged.name, "empty");
}

TEST(InterleaveTest, ZeroLengthSourceContributesNothingButKeepsIndices) {
  Trace empty;
  empty.name = "zero";
  const Trace full = TwoHintTrace("full", 10);
  const Trace merged = Interleave("m", {&empty, &full});
  ASSERT_EQ(merged.size(), full.size());
  // The zero-length source still occupies client slot 0, so every
  // surviving request is tagged with its source index 1 and the
  // original order of the non-empty source is preserved.
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged.requests[i].client, 1);
    EXPECT_EQ(merged.requests[i].page, full.requests[i].page);
  }
}

TEST(InterleaveTest, HeavilyUnequalLengthsKeepRoundRobinTailOrder) {
  Trace one = TwoHintTrace("one", 0);
  one.requests.resize(1);
  const Trace five = TwoHintTrace("five", 200);  // 6 requests
  const Trace merged = Interleave("m", {&one, &five});
  ASSERT_EQ(merged.size(), 1 + five.size());
  // Round 1 takes one request from each source; after the short source
  // is exhausted every later round takes only from the long one, in
  // its original order.
  EXPECT_EQ(merged.requests[0].client, 0);
  EXPECT_EQ(merged.requests[0].page, one.requests[0].page);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_EQ(merged.requests[i].client, 1);
    EXPECT_EQ(merged.requests[i].page, five.requests[i - 1].page);
  }
}

}  // namespace
}  // namespace clic
