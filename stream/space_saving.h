// Space-Saving top-k frequency summary (Metwally, Agrawal, El Abbadi,
// ICDT 2005) on the stream-summary data structure: counter nodes hang off
// count-buckets kept in a sorted doubly-linked list, so Offer() is O(1)
// (plus one expected-O(1) hash lookup) for every case — increment,
// insert, and min-replacement alike. The item index is a fixed-capacity
// open-addressing table sized in the constructor (at least twice the
// counters, so it is never more than half full), so a min-replacement's
// erase and insert touch no allocator: once the node and bucket arrays
// reach k entries, Offer() never allocates.
//
// Guarantees (with k counters over a stream of N items):
//   * every monitored item i satisfies true_count <= Count(i) and
//     Count(i) - Error(i) <= true_count,
//   * any item with true count > N/k is guaranteed to be monitored.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

namespace clic {

template <typename T>
class SpaceSaving {
 public:
  struct Entry {
    T item{};
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };

  explicit SpaceSaving(std::size_t k) : capacity_(k == 0 ? 1 : k) {
    nodes_.reserve(capacity_);
    buckets_.reserve(capacity_ + 1);
    free_buckets_.reserve(capacity_ + 1);
    while ((std::size_t{1} << index_bits_) < 2 * capacity_) ++index_bits_;
    index_.assign(std::size_t{1} << index_bits_, kInvalid);
  }

  /// Observes one occurrence of `item`.
  // clic-lint: hot-path
  void Offer(const T& item) {
    const std::size_t slot = FindSlot(item);
    if (index_[slot] != kInvalid) {
      Increment(index_[slot]);
      return;
    }
    if (nodes_.size() < capacity_) {
      const std::uint32_t n = NewNode(item, /*count=*/0, /*error=*/0);
      index_[slot] = n;
      Increment(n);
      return;
    }
    // Replace the minimum-count item; its count becomes the error bound
    // of the newcomer.
    const std::uint32_t b = min_bucket_;
    const std::uint32_t n = buckets_[b].head;
    EraseSlot(FindSlot(nodes_[n].item));
    nodes_[n].item = item;
    nodes_[n].error = buckets_[b].count;
    // The erase may have shifted entries, so probe again for the hole.
    index_[FindSlot(item)] = n;
    Increment(n);
  }

  std::size_t size() const { return nodes_.size(); }
  std::size_t capacity() const { return capacity_; }

  bool Contains(const T& item) const {
    return index_[FindSlot(item)] != kInvalid;
  }

  /// Estimated count (upper bound on the true count); 0 if unmonitored.
  std::uint64_t Count(const T& item) const {
    const std::uint32_t n = index_[FindSlot(item)];
    return n == kInvalid ? 0 : buckets_[nodes_[n].bucket].count;
  }

  std::uint64_t Error(const T& item) const {
    const std::uint32_t n = index_[FindSlot(item)];
    return n == kInvalid ? 0 : nodes_[n].error;
  }

  /// All monitored entries, highest count first.
  std::vector<Entry> Items() const {
    std::vector<Entry> out;
    out.reserve(nodes_.size());
    // Walk buckets from the max end of the sorted list.
    for (std::uint32_t b = max_bucket_; b != kInvalid; b = buckets_[b].prev) {
      for (std::uint32_t n = buckets_[b].head; n != kInvalid;
           n = nodes_[n].next) {
        out.push_back(Entry{nodes_[n].item, buckets_[b].count,
                            nodes_[n].error});
      }
    }
    return out;
  }

  void Clear() {
    nodes_.clear();
    buckets_.clear();
    free_buckets_.clear();
    std::fill(index_.begin(), index_.end(), kInvalid);
    min_bucket_ = max_bucket_ = kInvalid;
  }

 private:
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

  struct Node {
    T item;
    std::uint64_t error;
    std::uint32_t bucket;
    std::uint32_t prev, next;  // within the bucket's node list
  };
  struct Bucket {
    std::uint64_t count;
    std::uint32_t head;        // first node
    std::uint32_t prev, next;  // sorted bucket list (ascending count)
  };

  // ---- item index: node ids in a power-of-two table, linear probing ----

  std::size_t Home(const T& item) const {
    const std::uint64_t h =
        static_cast<std::uint64_t>(std::hash<T>{}(item)) *
        0x9E3779B97F4A7C15ull;  // Fibonacci hashing: identity hashes spread
    return static_cast<std::size_t>(h >> (64 - index_bits_));
  }

  /// The slot holding `item`'s node id, or the empty slot ending its
  /// probe run (where it would be inserted).
  std::size_t FindSlot(const T& item) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = Home(item);
    while (index_[i] != kInvalid && !(nodes_[index_[i]].item == item)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Empties an occupied slot by backward-shift deletion: later entries
  /// of the probe run move up into the hole unless that would carry one
  /// before its home slot, so no tombstones accumulate.
  void EraseSlot(std::size_t hole) {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; index_[j] != kInvalid;
         j = (j + 1) & mask) {
      const std::size_t home = Home(nodes_[index_[j]].item);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = kInvalid;
  }

  std::uint32_t NewNode(const T& item, std::uint64_t count,
                        std::uint64_t error) {
    nodes_.push_back(Node{item, error, kInvalid, kInvalid, kInvalid});
    const std::uint32_t n = static_cast<std::uint32_t>(nodes_.size() - 1);
    AttachToBucketWithCount(n, count, /*after=*/kInvalid);
    return n;
  }

  /// Moves node n from its current bucket (count c) to a bucket with
  /// count c+1, creating/destroying buckets as needed. O(1).
  void Increment(std::uint32_t n) {
    const std::uint32_t b = nodes_[n].bucket;
    const std::uint64_t target = buckets_[b].count + 1;
    DetachNode(n);
    // The next bucket in ascending order either has the target count (move
    // there) or we splice a fresh bucket right after b — but b itself may
    // have just become empty, in which case it can be reused in place.
    const std::uint32_t nb = buckets_[b].next;
    if (nb != kInvalid && buckets_[nb].count == target) {
      AttachNodeToBucket(n, nb);
      if (buckets_[b].head == kInvalid) RemoveBucket(b);
      return;
    }
    if (buckets_[b].head == kInvalid) {
      buckets_[b].count = target;  // reuse the emptied bucket in place
      AttachNodeToBucket(n, b);
      return;
    }
    AttachToBucketWithCount(n, target, /*after=*/b);
  }

  void AttachToBucketWithCount(std::uint32_t n, std::uint64_t count,
                               std::uint32_t after) {
    // Find or create the bucket holding `count`, located right after
    // `after` (or at the min end when after == kInvalid).
    std::uint32_t pos = (after == kInvalid) ? min_bucket_ : buckets_[after].next;
    if (pos != kInvalid && buckets_[pos].count == count) {
      AttachNodeToBucket(n, pos);
      return;
    }
    const std::uint32_t b = AllocBucket(count);
    // Splice b before `pos` (and after `after`).
    buckets_[b].prev = (pos == kInvalid) ? max_bucket_ : buckets_[pos].prev;
    buckets_[b].next = pos;
    if (buckets_[b].prev != kInvalid) buckets_[buckets_[b].prev].next = b;
    if (pos != kInvalid) buckets_[pos].prev = b;
    if (min_bucket_ == pos) min_bucket_ = b;
    if (pos == kInvalid) max_bucket_ = b;
    if (min_bucket_ == kInvalid) min_bucket_ = b;
    AttachNodeToBucket(n, b);
  }

  void AttachNodeToBucket(std::uint32_t n, std::uint32_t b) {
    nodes_[n].bucket = b;
    nodes_[n].prev = kInvalid;
    nodes_[n].next = buckets_[b].head;
    if (buckets_[b].head != kInvalid) nodes_[buckets_[b].head].prev = n;
    buckets_[b].head = n;
  }

  void DetachNode(std::uint32_t n) {
    const std::uint32_t b = nodes_[n].bucket;
    if (nodes_[n].prev != kInvalid) {
      nodes_[nodes_[n].prev].next = nodes_[n].next;
    } else {
      buckets_[b].head = nodes_[n].next;
    }
    if (nodes_[n].next != kInvalid) nodes_[nodes_[n].next].prev = nodes_[n].prev;
    nodes_[n].prev = nodes_[n].next = kInvalid;
  }

  std::uint32_t AllocBucket(std::uint64_t count) {
    std::uint32_t b;
    if (!free_buckets_.empty()) {
      b = free_buckets_.back();
      free_buckets_.pop_back();
    } else {
      buckets_.push_back(Bucket{});
      b = static_cast<std::uint32_t>(buckets_.size() - 1);
    }
    buckets_[b] = Bucket{count, kInvalid, kInvalid, kInvalid};
    return b;
  }

  void RemoveBucket(std::uint32_t b) {
    if (buckets_[b].prev != kInvalid) {
      buckets_[buckets_[b].prev].next = buckets_[b].next;
    }
    if (buckets_[b].next != kInvalid) {
      buckets_[buckets_[b].next].prev = buckets_[b].prev;
    }
    if (min_bucket_ == b) min_bucket_ = buckets_[b].next;
    if (max_bucket_ == b) max_bucket_ = buckets_[b].prev;
    free_buckets_.push_back(b);
  }

  std::size_t capacity_;
  std::vector<Node> nodes_;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::vector<std::uint32_t> index_;  // node ids; kInvalid = empty slot
  int index_bits_ = 1;                // log2(index_.size())
  std::uint32_t min_bucket_ = kInvalid;
  std::uint32_t max_bucket_ = kInvalid;
};

}  // namespace clic
