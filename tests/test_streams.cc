#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "stream/lossy_counting.h"
#include "stream/space_saving.h"

namespace clic {
namespace {

TEST(SpaceSavingTest, ExactWhenCapacityCoversDistinctItems) {
  SpaceSaving<int> ss(8);
  std::map<int, std::uint64_t> truth;
  Rng rng(42);
  for (int i = 0; i < 10'000; ++i) {
    const int item = static_cast<int>(rng.Below(8));
    ss.Offer(item);
    ++truth[item];
  }
  for (const auto& [item, count] : truth) {
    EXPECT_EQ(ss.Count(item), count) << "item " << item;
    EXPECT_EQ(ss.Error(item), 0u) << "item " << item;
  }
  EXPECT_EQ(ss.size(), truth.size());
}

TEST(SpaceSavingTest, BoundsHoldUnderReplacement) {
  // Zipf stream over many more items than counters.
  SpaceSaving<std::uint32_t> ss(10);
  std::map<std::uint32_t, std::uint64_t> truth;
  Rng rng(7);
  ZipfGenerator zipf(1'000, 1.2);
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const std::uint32_t item = zipf(rng);
    ss.Offer(item);
    ++truth[item];
  }
  // Per-item guarantee: true <= Count, Count - Error <= true.
  for (const auto& entry : ss.Items()) {
    const std::uint64_t true_count = truth[entry.item];
    EXPECT_GE(entry.count, true_count);
    EXPECT_LE(entry.count - entry.error, true_count);
  }
  // Any item with true count > n/k must be monitored.
  for (const auto& [item, count] : truth) {
    if (count > static_cast<std::uint64_t>(n) / 10) {
      EXPECT_TRUE(ss.Contains(item)) << "item " << item;
    }
  }
  // The heaviest item of Zipf(1.2) is unambiguous: it must be on top.
  ASSERT_FALSE(ss.Items().empty());
  EXPECT_EQ(ss.Items().front().item, 0u);
}

TEST(SpaceSavingTest, ItemsSortedByCount) {
  SpaceSaving<int> ss(16);
  for (int i = 0; i < 10; ++i) {
    for (int rep = 0; rep <= i; ++rep) ss.Offer(i);
  }
  const auto items = ss.Items();
  for (std::size_t i = 1; i < items.size(); ++i) {
    EXPECT_GE(items[i - 1].count, items[i].count);
  }
}

// Naive Space-Saving over a std::map, written from the algorithm's
// definition plus the stream-summary's tie rules: every offer stamps the
// touched entry; the replaced minimum is the most recently stamped of
// the minimum-count entries; Items() lists count descending, then
// most recently stamped first.
class ReferenceSpaceSaving {
 public:
  explicit ReferenceSpaceSaving(std::size_t k) : k_(k) {}

  void Offer(std::uint32_t item) {
    ++clock_;
    auto it = entries_.find(item);
    if (it != entries_.end()) {
      ++it->second.count;
      it->second.stamp = clock_;
      return;
    }
    if (entries_.size() < k_) {
      entries_[item] = {1, 0, clock_};
      return;
    }
    auto victim = entries_.begin();
    for (auto e = entries_.begin(); e != entries_.end(); ++e) {
      if (e->second.count < victim->second.count ||
          (e->second.count == victim->second.count &&
           e->second.stamp > victim->second.stamp)) {
        victim = e;
      }
    }
    const std::uint64_t min_count = victim->second.count;
    entries_.erase(victim);
    entries_[item] = {min_count + 1, min_count, clock_};
  }

  std::vector<SpaceSaving<std::uint32_t>::Entry> Items() const {
    std::vector<std::pair<std::uint32_t, State>> all(entries_.begin(),
                                                     entries_.end());
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.second.count != b.second.count) {
        return a.second.count > b.second.count;
      }
      return a.second.stamp > b.second.stamp;
    });
    std::vector<SpaceSaving<std::uint32_t>::Entry> out;
    for (const auto& [item, st] : all) {
      out.push_back({item, st.count, st.error});
    }
    return out;
  }

  void Clear() { entries_.clear(); }

 private:
  struct State {
    std::uint64_t count;
    std::uint64_t error;
    std::uint64_t stamp;
  };
  std::size_t k_;
  std::uint64_t clock_ = 0;
  std::map<std::uint32_t, State> entries_;
};

TEST(SpaceSavingTest, MatchesNaiveReferenceUnderChurnAcrossClears) {
  // A high-churn stream: far more distinct items than counters, so most
  // offers are min-replacements and the index erases and inserts on
  // nearly every request. Items are spread over a wide range so probe
  // runs collide and wrap in the open-addressing index.
  for (const std::size_t k : {1, 3, 100}) {
    SpaceSaving<std::uint32_t> ss(k);
    ReferenceSpaceSaving ref(k);
    Rng rng(1000 + k);
    ZipfGenerator zipf(20'000, 0.8);
    for (int window = 0; window < 40; ++window) {
      const int length = 500 + static_cast<int>(rng.Below(5'000));
      for (int i = 0; i < length; ++i) {
        const std::uint32_t item =
            rng.Chance(0.2) ? static_cast<std::uint32_t>(rng.Next())
                            : zipf(rng) * 7919u;
        ss.Offer(item);
        ref.Offer(item);
      }
      const auto got = ss.Items();
      const auto want = ref.Items();
      ASSERT_EQ(got.size(), want.size()) << "k " << k << " window " << window;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].item, want[i].item)
            << "k " << k << " window " << window << " position " << i;
        ASSERT_EQ(got[i].count, want[i].count) << "item " << got[i].item;
        ASSERT_EQ(got[i].error, want[i].error) << "item " << got[i].item;
        ASSERT_TRUE(ss.Contains(got[i].item));
        ASSERT_EQ(ss.Count(got[i].item), got[i].count);
        ASSERT_EQ(ss.Error(got[i].item), got[i].error);
      }
      ss.Clear();
      ref.Clear();
      ASSERT_EQ(ss.size(), 0u);
      ASSERT_TRUE(ss.Items().empty());
    }
  }
}

TEST(LossyCountingTest, UndercountBoundedByEpsilonN) {
  const double epsilon = 0.001;
  LossyCounting<std::uint32_t> lc(epsilon);
  std::map<std::uint32_t, std::uint64_t> truth;
  Rng rng(11);
  ZipfGenerator zipf(2'000, 1.0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const std::uint32_t item = zipf(rng);
    lc.Offer(item);
    ++truth[item];
  }
  const auto bound = static_cast<std::uint64_t>(epsilon * n);
  for (const auto& [item, count] : truth) {
    // Estimated counts never exceed the truth and undercount by <= eps*N.
    EXPECT_LE(lc.Count(item), count);
    if (count > bound) {
      EXPECT_TRUE(lc.Contains(item)) << "item " << item;
      EXPECT_GE(lc.Count(item) + bound, count);
    }
  }
}

TEST(LossyCountingTest, PrunesInfrequentItems) {
  LossyCounting<int> lc(0.01);  // bucket width 100
  // 10k distinct singletons must not all survive.
  for (int i = 0; i < 10'000; ++i) lc.Offer(i);
  EXPECT_LT(lc.size(), 1'000u);
}

}  // namespace
}  // namespace clic
